#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "test_util.h"

#include "graphdb/durable_store.h"

namespace hermes {
namespace {

void PopulateSmall(DurableGraphStore* db) {
  ASSERT_OK(db->CreateNode(1, 2.0));
  ASSERT_OK(db->CreateNode(2));
  ASSERT_OK(db->CreateNode(3));
  ASSERT_OK(db->AddEdge(1, 2, 5, true));
  ASSERT_OK(db->AddEdge(2, 99, 0, false));  // ghost-capable half
  ASSERT_OK(db->SetNodeProperty(1, 0, "alice"));
  ASSERT_OK(db->SetEdgeProperty(1, 2, 1, "friends-since-2009"));
  ASSERT_OK(db->Sync());
}

void ExpectSmallContent(const GraphStore& store,
                        double node1_weight = 2.0) {
  EXPECT_TRUE(store.HasNode(1));
  EXPECT_TRUE(store.HasNode(2));
  EXPECT_TRUE(store.HasNode(3));
  EXPECT_DOUBLE_EQ(*store.NodeWeight(1), node1_weight);
  EXPECT_EQ(*store.GetNodeProperty(1, 0), "alice");
  EXPECT_EQ(*store.GetEdgeProperty(2, 1, 1), "friends-since-2009");
  auto neigh = store.Neighbors(2);
  ASSERT_OK(neigh);
  EXPECT_EQ(neigh->size(), 2u);  // node 1 and remote 99
  EXPECT_TRUE(store.CheckChains());
}

TEST(DurableStoreTest, RecoversFromWalOnly) {
  const std::string dir = test::FreshDir("hermes_wal_only");
  {
    auto db = DurableGraphStore::Open(0, dir);
    ASSERT_OK(db);
    PopulateSmall(db->get());
    // No checkpoint: recovery must come entirely from the log.
  }
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_OK(db);
  ExpectSmallContent((*db)->store());
}

TEST(DurableStoreTest, RecoversFromSnapshotAfterCheckpoint) {
  const std::string dir = test::FreshDir("hermes_snapshot");
  {
    auto db = DurableGraphStore::Open(0, dir);
    ASSERT_OK(db);
    PopulateSmall(db->get());
    ASSERT_OK((*db)->Checkpoint());
  }
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_OK(db);
  ExpectSmallContent((*db)->store());
  // The log was truncated by the checkpoint.
  auto tail = WriteAheadLog::ReadAll(dir + "/wal.log", true);
  ASSERT_OK(tail);
  EXPECT_TRUE(tail->empty());
}

TEST(DurableStoreTest, SnapshotPlusTailReplay) {
  const std::string dir = test::FreshDir("hermes_mixed");
  {
    auto db = DurableGraphStore::Open(0, dir);
    ASSERT_OK(db);
    PopulateSmall(db->get());
    ASSERT_OK((*db)->Checkpoint());
    // Post-checkpoint mutations live only in the log.
    ASSERT_OK((*db)->CreateNode(4));
    ASSERT_OK((*db)->AddEdge(3, 4, 0, true));
    ASSERT_OK((*db)->AddNodeWeight(1, 5.0));
    ASSERT_OK((*db)->Sync());
  }
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_OK(db);
  const GraphStore& store = (*db)->store();
  ExpectSmallContent(store, /*node1_weight=*/7.0);
  EXPECT_TRUE(store.HasNode(4));
  auto neigh = store.Neighbors(3);
  ASSERT_OK(neigh);
  EXPECT_EQ(neigh->size(), 1u);
}

TEST(DurableStoreTest, DeletesSurviveRecovery) {
  const std::string dir = test::FreshDir("hermes_deletes");
  {
    auto db = DurableGraphStore::Open(0, dir);
    ASSERT_OK(db);
    PopulateSmall(db->get());
    ASSERT_OK((*db)->RemoveEdge(1, 2));
    ASSERT_OK((*db)->SetNodeState(3, NodeState::kUnavailable));
    ASSERT_OK((*db)->RemoveNode(3));
    ASSERT_OK((*db)->Sync());
  }
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_OK(db);
  const GraphStore& store = (*db)->store();
  EXPECT_FALSE(store.NodeExists(3));
  EXPECT_TRUE(store.FindEdge(1, 2).status().IsNotFound());
  EXPECT_TRUE(store.CheckChains());
}

TEST(DurableStoreTest, GhostFlagsSurviveSnapshotRoundTrip) {
  GraphStore store(2);
  ASSERT_OK(store.CreateNode(10));
  ASSERT_OK(store.CreateNode(20));
  ASSERT_OK(store.AddEdge(10, 20, 0, true));
  ASSERT_OK(store.AddEdge(10, 500, 0, false));  // real half (10<500)
  ASSERT_OK(store.AddEdge(20, 3, 0, false));    // ghost half (20>3)

  const std::string path = test::FreshPath("hermes_ghosts.snap");
  ASSERT_OK(DurableGraphStore::WriteSnapshot(store, path));
  GraphStore restored(2);
  ASSERT_OK(DurableGraphStore::LoadSnapshot(path, &restored));

  EXPECT_FALSE(*restored.EdgeIsGhost(10, 20));
  EXPECT_FALSE(*restored.EdgeIsGhost(10, 500));
  EXPECT_TRUE(*restored.EdgeIsGhost(20, 3));
  EXPECT_EQ(restored.NumRelationships(), store.NumRelationships());
  EXPECT_TRUE(restored.CheckChains());
  std::remove(path.c_str());
}

TEST(DurableStoreTest, UnavailableStateSurvivesSnapshot) {
  GraphStore store(0);
  ASSERT_OK(store.CreateNode(1));
  ASSERT_OK(store.SetNodeState(1, NodeState::kUnavailable));
  const std::string path = test::FreshPath("hermes_state.snap");
  ASSERT_OK(DurableGraphStore::WriteSnapshot(store, path));
  GraphStore restored(0);
  ASSERT_OK(DurableGraphStore::LoadSnapshot(path, &restored));
  EXPECT_TRUE(restored.NodeExists(1));
  EXPECT_FALSE(restored.HasNode(1));
  std::remove(path.c_str());
}

TEST(DurableStoreTest, TornLogTailLosesOnlyUnsyncedSuffix) {
  const std::string dir = test::FreshDir("hermes_torn");
  {
    auto db = DurableGraphStore::Open(0, dir);
    ASSERT_OK(db);
    ASSERT_OK((*db)->CreateNode(1));
    ASSERT_OK((*db)->CreateNode(2));
    ASSERT_OK((*db)->AddEdge(1, 2, 0, true));
    ASSERT_OK((*db)->Sync());
  }
  // Crash simulation: truncate the final bytes of the log.
  {
    const std::string wal = dir + "/wal.log";
    const auto size = std::filesystem::file_size(wal);
    std::filesystem::resize_file(wal, size - 4);
  }
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_OK(db);
  const GraphStore& store = (*db)->store();
  // Nodes (earlier records) recovered; the torn edge append is lost.
  EXPECT_TRUE(store.HasNode(1));
  EXPECT_TRUE(store.HasNode(2));
  EXPECT_TRUE(store.FindEdge(1, 2).status().IsNotFound());
}

// Replay used to tolerate *any* AlreadyExists from the store, which let a
// log that disagrees with the snapshot (a diverged replica, a corrupted
// entry, an LSN-accounting bug) recover silently into the wrong state.
// Now a duplicate create is tolerated only when the entry's payload is
// already reflected verbatim.
TEST(DurableStoreTest, ReplayRejectsDuplicateCreateWithDivergentPayload) {
  const std::string dir = test::FreshDir("hermes_replay_divergent");
  {
    GraphStore store(0);
    ASSERT_OK(store.CreateNode(1, 1.0));
    ASSERT_TRUE(DurableGraphStore::WriteSnapshot(store, dir + "/snapshot.bin",
                                                 /*covered_lsn=*/0)
                    .ok());
  }
  {
    auto wal = WriteAheadLog::Open(dir + "/wal.log");
    ASSERT_OK(wal);
    WalEntry e;
    e.type = WalOpType::kCreateNode;
    e.a = 1;
    e.weight = 2.0;  // disagrees with the snapshot's weight 1.0
    ASSERT_OK(wal->Append(e));
    ASSERT_OK(wal->Sync());
  }
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsIOError());
}

TEST(DurableStoreTest, ReplayToleratesDuplicateCreateWithMatchingPayload) {
  const std::string dir = test::FreshDir("hermes_replay_matching");
  {
    GraphStore store(0);
    ASSERT_OK(store.CreateNode(1, 1.0));
    ASSERT_TRUE(DurableGraphStore::WriteSnapshot(store, dir + "/snapshot.bin",
                                                 /*covered_lsn=*/0)
                    .ok());
  }
  {
    auto wal = WriteAheadLog::Open(dir + "/wal.log");
    ASSERT_OK(wal);
    WalEntry e;
    e.type = WalOpType::kCreateNode;
    e.a = 1;
    e.weight = 1.0;  // same create the snapshot already contains
    ASSERT_OK(wal->Append(e));
    ASSERT_OK(wal->Sync());
  }
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_OK(db);
  EXPECT_DOUBLE_EQ(*(*db)->store().NodeWeight(1), 1.0);
}

TEST(DurableStoreTest, ReplayToleratesEdgeAlreadyInSnapshot) {
  const std::string dir = test::FreshDir("hermes_replay_edge_dup");
  {
    GraphStore store(0);
    ASSERT_OK(store.CreateNode(1));
    ASSERT_OK(store.CreateNode(2));
    ASSERT_OK(store.AddEdge(1, 2, 7, true));
    ASSERT_TRUE(DurableGraphStore::WriteSnapshot(store, dir + "/snapshot.bin",
                                                 /*covered_lsn=*/0)
                    .ok());
  }
  {
    auto wal = WriteAheadLog::Open(dir + "/wal.log");
    ASSERT_OK(wal);
    WalEntry e;
    e.type = WalOpType::kAddEdge;
    e.a = 1;
    e.b = 2;
    e.key = 7;
    e.flag = 1;
    ASSERT_OK(wal->Append(e));
    ASSERT_OK(wal->Sync());
  }
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_OK(db);
  EXPECT_OK((*db)->store().FindEdge(1, 2));
}

TEST(DurableStoreTest, ReplayRejectsEdgeWithMissingEndpoint) {
  const std::string dir = test::FreshDir("hermes_replay_edge_bad");
  {
    GraphStore store(0);
    ASSERT_OK(store.CreateNode(1));
    ASSERT_TRUE(DurableGraphStore::WriteSnapshot(store, dir + "/snapshot.bin",
                                                 /*covered_lsn=*/0)
                    .ok());
  }
  {
    auto wal = WriteAheadLog::Open(dir + "/wal.log");
    ASSERT_OK(wal);
    WalEntry e;
    e.type = WalOpType::kAddEdge;
    e.a = 1;
    e.b = 3;  // endpoint 3 exists nowhere
    e.flag = 1;
    ASSERT_OK(wal->Append(e));
    ASSERT_OK(wal->Sync());
  }
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsIOError());
}

TEST(DurableStoreTest, OpenOnEmptyDirectoryIsFreshStore) {
  const std::string dir = test::FreshDir("hermes_fresh");
  auto db = DurableGraphStore::Open(3, dir);
  ASSERT_OK(db);
  EXPECT_EQ((*db)->store().NumNodes(), 0u);
  EXPECT_EQ((*db)->store().partition_id(), 3u);
}

TEST(DurableStoreTest, RepeatedCheckpointsStayConsistent) {
  const std::string dir = test::FreshDir("hermes_repeat");
  auto db = DurableGraphStore::Open(0, dir);
  ASSERT_OK(db);
  for (VertexId v = 0; v < 50; ++v) {
    ASSERT_OK((*db)->CreateNode(v));
    if (v > 0) {
      ASSERT_OK((*db)->AddEdge(v - 1, v, 0, true));
    }
    if (v % 10 == 9) {
      ASSERT_OK((*db)->Checkpoint());
    }
  }
  ASSERT_OK((*db)->Sync());
  db->reset();  // close

  auto reopened = DurableGraphStore::Open(0, dir);
  ASSERT_OK(reopened);
  EXPECT_EQ((*reopened)->store().NumNodes(), 50u);
  EXPECT_EQ((*reopened)->store().NumRelationships(), 49u);
  EXPECT_TRUE((*reopened)->store().CheckChains());
}

// --- Snapshot file I/O ------------------------------------------------------
//
// Snapshots are written in 8 KiB slices and read back through one 8 KiB
// buffer; the cases below pin the slice boundaries, truncation, the
// zero-padded shape older files have on disk, and a missing file.

constexpr std::uint64_t kHeaderBytes = 32;
constexpr std::uint64_t kSlice = 8192;

// Every node and relationship field a snapshot carries, as text, so two
// stores compare equal exactly when a round trip lost nothing.
std::string Canonical(const GraphStore& store) {
  std::ostringstream out;
  for (const auto& n : store.DumpNodes()) {
    out << "n " << n.id << " " << n.weight << " "
        << static_cast<int>(n.state);
    for (const auto& [key, value] : n.properties) {
      out << " " << key << "=" << value;
    }
    out << "\n";
  }
  for (const auto& r : store.DumpRelationships()) {
    out << "r " << r.src << " " << r.dst << " " << r.type << " " << r.ghost
        << r.src_linked << r.dst_linked;
    for (const auto& [key, value] : r.properties) {
      out << " " << key << "=" << value;
    }
    out << "\n";
  }
  return out.str();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// A store with node and edge properties, full and half relationships,
// and a non-available node. `pad` is the length of one extra node
// property, which sets the snapshot size byte by byte.
GraphStore PropertyStore(std::size_t pad) {
  GraphStore store(4);
  EXPECT_OK(store.CreateNode(1, 2.5));
  EXPECT_OK(store.CreateNode(2));
  EXPECT_OK(store.CreateNode(3));
  EXPECT_OK(store.AddEdge(1, 2, 7, true));
  EXPECT_OK(store.AddEdge(3, 900, 0, false));
  EXPECT_OK(store.SetNodeProperty(1, 0, "alice"));
  EXPECT_OK(store.SetNodeProperty(2, 1, std::string(pad, 'p')));
  EXPECT_OK(store.SetEdgeProperty(1, 2, 3, "since-2009"));
  EXPECT_OK(store.SetNodeState(3, NodeState::kUnavailable));
  return store;
}

// A PropertyStore whose snapshot content (file size minus the header) is
// exactly `content` bytes.
GraphStore StoreWithContentBytes(std::uint64_t content,
                                 const std::string& scratch) {
  EXPECT_OK(DurableGraphStore::WriteSnapshot(PropertyStore(0), scratch));
  const std::uint64_t base = ReadFile(scratch).size() - kHeaderBytes;
  EXPECT_LE(base, content);
  return PropertyStore(
      base <= content ? static_cast<std::size_t>(content - base) : 0);
}

TEST(DurableStoreTest, SnapshotRoundTripsAcrossSliceBoundaries) {
  const std::string dir = test::FreshDir("hermes_snapshot_slices");
  const std::string path = dir + "/snapshot.bin";
  // Content lengths around one slice, file sizes around one slice, and
  // a snapshot spanning several slices.
  for (const std::uint64_t content :
       {kSlice - 1, kSlice, kSlice + 1, kSlice - kHeaderBytes,
        kSlice - kHeaderBytes + 1, 3 * kSlice + 17}) {
    SCOPED_TRACE("content length " + std::to_string(content));
    const GraphStore store = StoreWithContentBytes(content, path);
    ASSERT_OK(DurableGraphStore::WriteSnapshot(store, path, 42));
    EXPECT_EQ(ReadFile(path).size(), kHeaderBytes + content);

    GraphStore restored(4);
    std::uint64_t covered = 0;
    ASSERT_OK(DurableGraphStore::LoadSnapshot(path, &restored, &covered));
    EXPECT_EQ(covered, 42u);
    EXPECT_EQ(Canonical(restored), Canonical(store));
    EXPECT_TRUE(restored.CheckChains());
  }
}

TEST(DurableStoreTest, TruncatedSnapshotIsAnIOErrorAtEveryByte) {
  const std::string dir = test::FreshDir("hermes_snapshot_truncated");
  const std::string path = dir + "/snapshot.bin";
  const std::string cut_path = dir + "/cut.bin";
  ASSERT_OK(DurableGraphStore::WriteSnapshot(PropertyStore(2 * kSlice), path));
  const std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 2 * kSlice);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    WriteFile(cut_path, bytes.substr(0, len));
    GraphStore restored(4);
    const Status st = DurableGraphStore::LoadSnapshot(cut_path, &restored);
    ASSERT_TRUE(st.IsIOError()) << "cut at " << len << ": " << st.ToString();
  }
}

TEST(DurableStoreTest, ZeroPaddedSnapshotStillLoads) {
  // Older snapshot files are zero-padded to a whole number of 8 KiB
  // pages; the content length, not the file size, bounds the load.
  const std::string dir = test::FreshDir("hermes_snapshot_padded");
  const std::string path = dir + "/snapshot.bin";
  const GraphStore store = PropertyStore(100);
  ASSERT_OK(DurableGraphStore::WriteSnapshot(store, path, 7));
  std::string bytes = ReadFile(path);
  ASSERT_NE(bytes.size() % kSlice, 0u);
  bytes.resize((bytes.size() / kSlice + 1) * kSlice, '\0');
  WriteFile(path, bytes);

  GraphStore restored(4);
  std::uint64_t covered = 0;
  ASSERT_OK(DurableGraphStore::LoadSnapshot(path, &restored, &covered));
  EXPECT_EQ(covered, 7u);
  EXPECT_EQ(Canonical(restored), Canonical(store));
}

TEST(DurableStoreTest, MissingSnapshotIsNotFound) {
  const std::string dir = test::FreshDir("hermes_snapshot_missing");
  GraphStore restored(0);
  EXPECT_TRUE(
      DurableGraphStore::LoadSnapshot(dir + "/snapshot.bin", &restored)
          .IsNotFound());
}

}  // namespace
}  // namespace hermes
