#include "graphdb/durable_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "storage/fd_appender.h"

namespace hermes {

namespace {

constexpr std::uint64_t kSnapshotMagic = 0x4845524d45533033ULL;  // "HERMES03"

// Snapshot file layout: [magic u64][partition u32][pad u32]
// [content_length u64][covered_lsn u64], content follows at byte 32. The
// covered LSN makes recovery safe when a crash lands between the snapshot
// rename and the WAL truncation: entries at or below it are already
// reflected in the snapshot and must not be replayed. Older snapshot
// files are zero-padded to a multiple of 8 KiB; the loader checks the
// content length, not the file size, so both shapes load.
constexpr std::uint64_t kSnapshotHeaderBytes = 32;
// The writer hands the file this many bytes per write(2) and the reader
// refills a buffer of this size, so each snapshot failpoint site is
// evaluated once per slice.
constexpr std::size_t kSnapshotSliceBytes = 8192;

// The writers take any `Out` with Append(const void*, std::size_t): a
// ByteCount for the sizing pass, then a SliceWriter for the file.
template <typename Out>
void WriteU64(Out& out, std::uint64_t v) {
  out.Append(&v, sizeof(v));
}
template <typename Out>
void WriteU32(Out& out, std::uint32_t v) {
  out.Append(&v, sizeof(v));
}
template <typename Out>
void WriteF64(Out& out, double v) {
  out.Append(&v, sizeof(v));
}
template <typename Out>
void WriteString(Out& out, const std::string& s) {
  WriteU32(out, static_cast<std::uint32_t>(s.size()));
  out.Append(s.data(), s.size());
}

/// Sequential reader over a snapshot file through one fixed buffer that
/// read(2) refills, so loading never holds a whole-file copy.
class SnapshotReader {
 public:
  SnapshotReader() = default;
  ~SnapshotReader() {
    if (fd_ >= 0) ::close(fd_);
  }
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  /// Opens `path`; a missing file is NotFound.
  [[nodiscard]] Status Open(const std::string& path) {
    do {
      fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    } while (fd_ < 0 && errno == EINTR);
    if (fd_ >= 0) return Status::OK();
    if (errno == ENOENT) return Status::NotFound("no snapshot at " + path);
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }

  /// Reads exactly `size` bytes; false at end of file or on an I/O error.
  bool Read(void* out, std::size_t size) {
    auto* dst = static_cast<char*>(out);
    while (size > 0) {
      if (begin_ == end_ && !Refill()) return false;
      const std::size_t chunk = std::min(size, end_ - begin_);
      std::memcpy(dst, buf_.data() + begin_, chunk);
      begin_ += chunk;
      dst += chunk;
      size -= chunk;
      position_ += chunk;
    }
    return true;
  }

  /// Bytes consumed so far.
  std::uint64_t position() const { return position_; }

 private:
  bool Refill() {
    if (HERMES_FAILPOINT_HIT("snapshot.read.io_error").fired) return false;
    ssize_t n = 0;
    do {
      n = ::read(fd_, buf_.data(), buf_.size());
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;
    begin_ = 0;
    end_ = static_cast<std::size_t>(n);
    return true;
  }

  int fd_ = -1;
  std::array<char, kSnapshotSliceBytes> buf_{};
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::uint64_t position_ = 0;
};

bool ReadU64(SnapshotReader& in, std::uint64_t* v) {
  return in.Read(v, sizeof(*v));
}
bool ReadU32(SnapshotReader& in, std::uint32_t* v) {
  return in.Read(v, sizeof(*v));
}
bool ReadF64(SnapshotReader& in, double* v) { return in.Read(v, sizeof(*v)); }
bool ReadString(SnapshotReader& in, std::string* s) {
  std::uint32_t size = 0;
  if (!ReadU32(in, &size) || size > (1u << 28)) return false;
  s->resize(size);
  return size == 0 || in.Read(s->data(), size);
}

using Properties = std::vector<std::pair<std::uint32_t, std::string>>;

template <typename Out>
void WriteProperties(Out& out, const Properties& props) {
  WriteU32(out, static_cast<std::uint32_t>(props.size()));
  for (const auto& [key, value] : props) {
    WriteU32(out, key);
    WriteString(out, value);
  }
}

bool ReadProperties(SnapshotReader& in, Properties* props) {
  std::uint32_t count = 0;
  if (!ReadU32(in, &count) || count > (1u << 24)) return false;
  props->clear();
  props->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t key = 0;
    std::string value;
    if (!ReadU32(in, &key) || !ReadString(in, &value)) return false;
    props->emplace_back(key, std::move(value));
  }
  return true;
}

/// Appends the snapshot content — every node, then every relationship
/// with its chain linkage — to `out`.
template <typename Out>
void WriteContent(const std::vector<GraphStore::NodeDump>& nodes,
                  const std::vector<GraphStore::RelationshipDump>& rels,
                  Out& out) {
  WriteU64(out, nodes.size());
  for (const auto& n : nodes) {
    WriteU64(out, n.id);
    WriteF64(out, n.weight);
    WriteU32(out, static_cast<std::uint32_t>(n.state));
    WriteProperties(out, n.properties);
  }
  WriteU64(out, rels.size());
  for (const auto& r : rels) {
    WriteU64(out, r.src);
    WriteU64(out, r.dst);
    WriteU32(out, r.type);
    // Chain linkage must be persisted, not inferred: after a node is
    // removed and its id re-created, both endpoints of a leftover half
    // record exist again, and endpoint existence would wrongly
    // reconstruct it as a full edge.
    const std::uint32_t flags = (r.ghost ? 1u : 0u) |
                                (r.src_linked ? 2u : 0u) |
                                (r.dst_linked ? 4u : 0u);
    WriteU32(out, flags);
    WriteProperties(out, r.properties);
  }
}

/// Counts appended bytes: the header carries the content length and is
/// written first, so the content is sized before it is written.
struct ByteCount {
  std::uint64_t bytes = 0;
  void Append(const void*, std::size_t len) { bytes += len; }
};

/// Writes appended bytes to a file in kSnapshotSliceBytes slices, so a
/// snapshot never needs a whole-file buffer. The first error is sticky
/// and returned by Finish().
class SliceWriter {
 public:
  explicit SliceWriter(FdAppender* file) : file_(file) {}

  void Append(const void* data, std::size_t len) {
    const auto* p = static_cast<const char*>(data);
    while (len > 0 && status_.ok()) {
      const std::size_t n = std::min(len, slice_.size() - used_);
      std::memcpy(slice_.data() + used_, p, n);
      used_ += n;
      p += n;
      len -= n;
      if (used_ == slice_.size()) status_ = Flush();
    }
  }

  /// Writes the last, partial slice and fsyncs the file.
  [[nodiscard]] Status Finish() {
    if (status_.ok() && used_ > 0) status_ = Flush();
    HERMES_RETURN_NOT_OK(status_);
    HERMES_FAILPOINT_IOERROR("snapshot.sync.io_error");
    return file_->Sync();
  }

 private:
  [[nodiscard]] Status Flush() {
    const std::size_t len = used_;
    used_ = 0;
    HERMES_FAILPOINT_IOERROR("snapshot.write.io_error");
    const FailpointHit torn =
        HERMES_FAILPOINT_HIT("snapshot.write.short_write");
    if (torn.fired) {
      // Torn write: only a prefix of the slice reaches the file before the
      // simulated power loss; the crash latch keeps later writes from
      // papering over the damage.
      const std::uint64_t want = torn.arg != 0 ? torn.arg : len / 2;
      const auto cut = static_cast<std::size_t>(
          std::min<std::uint64_t>(want, len - 1));
      if (Status st = file_->Append(slice_.data(), cut); !st.ok()) {
        // The tear is the injected failure; a second error writing the
        // prefix leaves an even shorter tear, which recovery must equally
        // survive.
      }
      HERMES_FAILPOINT_LATCH_CRASH("snapshot.write.short_write");
      return Status::IOError("failpoint: snapshot.write.short_write");
    }
    return file_->Append(slice_.data(), len);
  }

  FdAppender* const file_;
  std::array<char, kSnapshotSliceBytes> slice_{};
  std::size_t used_ = 0;
  Status status_;
};

}  // namespace

Status DurableGraphStore::WriteSnapshot(const GraphStore& store,
                                        const std::string& path,
                                        std::uint64_t covered_lsn) {
  const auto nodes = store.DumpNodes();
  const auto rels = store.DumpRelationships();
  ByteCount content;
  WriteContent(nodes, rels, content);

  // Write to a temp file then rename for atomicity.
  const std::string tmp = path + ".tmp";
  std::remove(tmp.c_str());
  {
    HERMES_ASSIGN_OR_RETURN(FdAppender file, FdAppender::Open(tmp));
    SliceWriter out(&file);
    WriteU64(out, kSnapshotMagic);
    WriteU32(out, store.partition_id());
    WriteU32(out, 0);  // pad
    WriteU64(out, content.bytes);
    WriteU64(out, covered_lsn);
    WriteContent(nodes, rels, out);
    HERMES_RETURN_NOT_OK(out.Finish());
  }
  // Crash with the complete snapshot in the temp file but not yet
  // renamed: recovery must fall back to the previous snapshot + log.
  HERMES_FAILPOINT_CRASH("durable_store.snapshot.rename.crash");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("snapshot rename failed");
  }
  // The rename lives in the directory entry: until the directory is
  // synced, a power loss can undo it even after the caller truncates the
  // log the snapshot replaces.
  HERMES_FAILPOINT_IOERROR("snapshot.dir_sync.io_error");
  return SyncParentDirectory(path);
}

Status DurableGraphStore::LoadSnapshot(const std::string& path,
                                       GraphStore* store,
                                       std::uint64_t* covered_lsn) {
  SnapshotReader in;
  HERMES_RETURN_NOT_OK(in.Open(path));

  std::uint64_t magic = 0;
  std::uint32_t partition = 0;
  std::uint32_t pad = 0;
  std::uint64_t content_length = 0;
  std::uint64_t covered = 0;
  if (!ReadU64(in, &magic) || magic != kSnapshotMagic ||
      !ReadU32(in, &partition) || !ReadU32(in, &pad) ||
      !ReadU64(in, &content_length) || !ReadU64(in, &covered)) {
    return Status::IOError("bad snapshot header");
  }
  if (covered_lsn != nullptr) *covered_lsn = covered;

  std::uint64_t node_count = 0;
  if (!ReadU64(in, &node_count)) return Status::IOError("truncated snapshot");
  // Non-available states are applied only after the relationship section:
  // AddEdge rejects unavailable endpoints (mid-migration write guard), so
  // restoring a node's kUnavailable state first would make its own edges
  // unloadable.
  std::vector<std::pair<VertexId, NodeState>> deferred_states;
  for (std::uint64_t i = 0; i < node_count; ++i) {
    std::uint64_t id = 0;
    double weight = 0.0;
    std::uint32_t state = 0;
    Properties props;
    if (!ReadU64(in, &id) || !ReadF64(in, &weight) || !ReadU32(in, &state) ||
        !ReadProperties(in, &props)) {
      return Status::IOError("truncated snapshot (nodes)");
    }
    HERMES_RETURN_NOT_OK(store->CreateNode(id, weight));
    if (static_cast<NodeState>(state) != NodeState::kAvailable) {
      deferred_states.emplace_back(id, static_cast<NodeState>(state));
    }
    for (const auto& [key, value] : props) {
      HERMES_RETURN_NOT_OK(store->SetNodeProperty(id, key, value));
    }
  }

  std::uint64_t rel_count = 0;
  if (!ReadU64(in, &rel_count)) return Status::IOError("truncated snapshot");
  for (std::uint64_t i = 0; i < rel_count; ++i) {
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    std::uint32_t type = 0;
    std::uint32_t flags = 0;
    Properties props;
    if (!ReadU64(in, &src) || !ReadU64(in, &dst) || !ReadU32(in, &type) ||
        !ReadU32(in, &flags) || !ReadProperties(in, &props)) {
      return Status::IOError("truncated snapshot (relationships)");
    }
    // flags: bit0 ghost, bit1 linked into src's chain, bit2 into dst's.
    // Full records are linked into both; half records into exactly the
    // one recorded here (the other endpoint may well exist locally — see
    // WriteSnapshot). AddEdge recomputes the ghost bit for half records
    // from the same id rule that produced the dumped value.
    const bool src_linked = (flags & 2u) != 0;
    const bool dst_linked = (flags & 4u) != 0;
    Result<RecordId> added = Status::Internal("unset");
    if (src_linked && dst_linked) {
      added = store->AddEdge(src, dst, type, /*other_is_local=*/true);
    } else if (src_linked) {
      added = store->AddEdge(src, dst, type, /*other_is_local=*/false);
    } else if (dst_linked) {
      added = store->AddEdge(dst, src, type, /*other_is_local=*/false);
    } else {
      return Status::IOError("snapshot relationship linked to no chain");
    }
    HERMES_RETURN_NOT_OK(added.status());
    for (const auto& [key, value] : props) {
      const Status st = store->SetEdgeProperty(src_linked ? src : dst,
                                               src_linked ? dst : src, key,
                                               value);
      if (!st.ok() && !st.IsInvalidArgument()) return st;  // ghost: no props
    }
  }
  for (const auto& [id, state] : deferred_states) {
    HERMES_RETURN_NOT_OK(store->SetNodeState(id, state));
  }
  if (in.position() != kSnapshotHeaderBytes + content_length) {
    return Status::IOError("snapshot length mismatch");
  }
  return Status::OK();
}

Status DurableGraphStore::Replay(const WalEntry& e, GraphStore* store) {
  // Precheck() keeps rejected mutations out of the log and the snapshot's
  // covered LSN keeps already-applied entries out of replay, so a store
  // rejection here almost always means real divergence. The one tolerated
  // case: an AlreadyExists whose payload provably matches the current
  // state (e.g. a pre-v3 log tail overlapping its snapshot) — anything
  // else must surface instead of hiding behind a blanket tolerance.
  switch (e.type) {
    case WalOpType::kCreateNode: {
      const Status st = store->CreateNode(e.a, e.weight);
      if (!st.IsAlreadyExists()) return st;
      const Result<double> weight = store->NodeWeight(e.a);
      if (weight.ok() && *weight == e.weight) return Status::OK();
      return Status::IOError(
          "replay: kCreateNode collides with an existing node of "
          "different weight (corrupt log or replay bug)");
    }
    case WalOpType::kRemoveNode:
      return store->RemoveNode(e.a);
    case WalOpType::kSetNodeState:
      return store->SetNodeState(e.a, static_cast<NodeState>(e.flag));
    case WalOpType::kAddNodeWeight:
      return store->AddNodeWeight(e.a, e.weight);
    case WalOpType::kAddEdge: {
      const Status st = store->AddEdge(e.a, e.b, e.key, e.flag != 0).status();
      if (!st.IsAlreadyExists()) return st;
      if (store->FindEdge(e.a, e.b).ok()) return Status::OK();
      return Status::IOError(
          "replay: kAddEdge rejected but the edge is not present "
          "(corrupt log or replay bug)");
    }
    case WalOpType::kRemoveEdge:
      return store->RemoveEdge(e.a, e.b);
    case WalOpType::kSetNodeProperty:
      return store->SetNodeProperty(e.a, e.key, e.payload);
    case WalOpType::kSetEdgeProperty:
      return store->SetEdgeProperty(e.a, e.b, e.key, e.payload);
    case WalOpType::kCheckpoint:
      return Status::OK();
  }
  return Status::Internal("unknown WAL entry type");
}

Status DurableGraphStore::Precheck(const WalEntry& e, const GraphStore& s) {
  switch (e.type) {
    case WalOpType::kCreateNode:
      if (s.NodeExists(e.a)) return Status::AlreadyExists("node exists");
      return Status::OK();
    case WalOpType::kRemoveNode:
    case WalOpType::kSetNodeState:
    case WalOpType::kAddNodeWeight:
    case WalOpType::kSetNodeProperty:
      if (!s.NodeExists(e.a)) return Status::NotFound("no such node");
      return Status::OK();
    case WalOpType::kAddEdge:
      // Mirrors GraphStore::AddEdge's check order exactly (including the
      // mid-migration Unavailable rejections), so that once the entry is
      // logged the store apply cannot fail and the crash-torture model
      // sees identical statuses.
      if (e.a == e.b) return Status::InvalidArgument("self-loops rejected");
      if (!s.NodeExists(e.a)) return Status::NotFound("no such node");
      if (!s.HasNode(e.a)) {
        return Status::Unavailable("node is mid-migration");
      }
      if (s.FindEdge(e.a, e.b).ok()) {
        return Status::AlreadyExists("edge exists");
      }
      if (e.flag != 0) {
        if (!s.NodeExists(e.b)) {
          return Status::NotFound("local other endpoint missing");
        }
        if (!s.HasNode(e.b)) {
          return Status::Unavailable("other endpoint is mid-migration");
        }
      }
      return Status::OK();
    case WalOpType::kRemoveEdge:
      return s.FindEdge(e.a, e.b).status();
    case WalOpType::kSetEdgeProperty: {
      const Result<bool> ghost = s.EdgeIsGhost(e.a, e.b);
      if (!ghost.ok()) return ghost.status();
      if (*ghost) {
        return Status::InvalidArgument("ghost edges carry no properties");
      }
      return Status::OK();
    }
    case WalOpType::kCheckpoint:
      return Status::OK();
  }
  return Status::Internal("unknown WAL entry type");
}

Result<std::unique_ptr<DurableGraphStore>> DurableGraphStore::Open(
    PartitionId partition_id, const std::string& dir, const Options& options) {
  auto store = std::make_unique<GraphStore>(partition_id);
  const std::string snapshot_path = dir + "/snapshot.bin";
  const std::string wal_path = dir + "/wal.log";

  // 1. Latest snapshot (if any).
  std::uint64_t covered_lsn = 0;
  const Status snap = LoadSnapshot(snapshot_path, store.get(), &covered_lsn);
  if (!snap.ok() && !snap.IsNotFound()) return snap;

  // 2. Replay the log tail after the last checkpoint, skipping entries
  // the snapshot already covers (a crash between the snapshot rename and
  // the log truncation leaves both on disk). A missing log just means a
  // fresh store; any other replay failure is real divergence and aborts
  // recovery (see Replay for the one verified tolerance).
  //
  // Idempotency tokens are collected from EVERY scanned entry — even ones
  // replay skips — because a skipped entry's mutation is applied state
  // all the same, and its client may still be retrying.
  std::vector<WalToken> recovered_tokens;
  auto entries = WriteAheadLog::ReadAll(wal_path,
                                        /*after_last_checkpoint=*/false);
  if (entries.ok()) {
    std::size_t replay_from = 0;
    for (std::size_t i = 0; i < entries->size(); ++i) {
      const WalEntry& e = (*entries)[i];
      if (e.type == WalOpType::kCheckpoint) replay_from = i + 1;
      if (e.token.valid()) recovered_tokens.push_back(e.token);
    }
    for (std::size_t i = replay_from; i < entries->size(); ++i) {
      const WalEntry& e = (*entries)[i];
      if (e.lsn <= covered_lsn) continue;
      const Status st = Replay(e, store.get());
      if (!st.ok()) {
        return Status::IOError("WAL replay failed at lsn " +
                               std::to_string(e.lsn) + ": " + st.message());
      }
    }
  }

  // New appends must never reuse LSNs the snapshot covers, even though a
  // checkpoint truncated the log this scan sees.
  HERMES_ASSIGN_OR_RETURN(
      WriteAheadLog wal,
      WriteAheadLog::Open(wal_path, covered_lsn + 1, options.group_commit));
  auto db = std::unique_ptr<DurableGraphStore>(new DurableGraphStore(
      partition_id, dir, std::move(store),
      std::make_unique<WriteAheadLog>(std::move(wal)),
      options.durable_mutations));
  db->recovered_tokens_ = std::move(recovered_tokens);
  return db;
}

Status DurableGraphStore::Checkpoint() {
  MutexLock lock(&mu_);
  // Crash windows, in order: before the snapshot (old snapshot + full
  // log recover everything), after the rename but before the checkpoint
  // marker (new snapshot + stale log — the covered LSN keeps replay from
  // double-applying), and after the marker but before the truncation
  // (replay-after-last-checkpoint sees an empty tail). WriteSnapshot
  // fsyncs the directory before returning, so the log is never truncated
  // while the rename could still be lost to a power failure.
  HERMES_FAILPOINT_CRASH("durable_store.checkpoint.crash");
  const std::uint64_t covered_lsn = wal_->next_lsn() - 1;
  // audit:allow(blocking, checkpoint is the documented quiesce point: mu_
  // must span snapshot + marker + truncation or a racing mutator could
  // slip an entry between the snapshot and the log reset and lose it)
  HERMES_RETURN_NOT_OK(
      WriteSnapshot(*store_, dir_ + "/snapshot.bin", covered_lsn));
  HERMES_FAILPOINT_CRASH("durable_store.checkpoint.after_snapshot.crash");
  // audit:allow(blocking, same checkpoint quiesce as above)
  HERMES_RETURN_NOT_OK(wal_->LogCheckpoint().status());
  HERMES_FAILPOINT_CRASH("durable_store.checkpoint.before_reset.crash");
  // audit:allow(blocking, same checkpoint quiesce as above)
  return wal_->Reset();
}

// Every mutator follows the same shape: under mu_, precheck + append +
// apply (the WAL rule, atomic across threads); then, only when
// durable_mutations is on, wait for the entry's LSN to be fsynced with
// mu_ RELEASED. The release is the point of group commit — concurrent
// mutators stage back-to-back under mu_ and then share one fsync window
// instead of serializing write+fsync per call.

Status DurableGraphStore::CreateNode(VertexId id, double weight,
                                     WalToken token) {
  std::uint64_t lsn = 0;
  bool durable = false;
  {
    MutexLock lock(&mu_);
    WalEntry e;
    e.type = WalOpType::kCreateNode;
    e.a = id;
    e.weight = weight;
    e.token = token;
    HERMES_RETURN_NOT_OK(Precheck(e, *store_));
    HERMES_ASSIGN_OR_RETURN(lsn, Log(std::move(e)));
    HERMES_RETURN_NOT_OK(store_->CreateNode(id, weight));
    durable = durable_mutations_;
  }
  return durable ? wal_->SyncUntil(lsn) : Status::OK();
}

Status DurableGraphStore::RemoveNode(VertexId v, WalToken token) {
  std::uint64_t lsn = 0;
  bool durable = false;
  {
    MutexLock lock(&mu_);
    WalEntry e;
    e.type = WalOpType::kRemoveNode;
    e.a = v;
    e.token = token;
    HERMES_RETURN_NOT_OK(Precheck(e, *store_));
    HERMES_ASSIGN_OR_RETURN(lsn, Log(std::move(e)));
    HERMES_RETURN_NOT_OK(store_->RemoveNode(v));
    durable = durable_mutations_;
  }
  return durable ? wal_->SyncUntil(lsn) : Status::OK();
}

Status DurableGraphStore::SetNodeState(VertexId id, NodeState state,
                                       WalToken token) {
  std::uint64_t lsn = 0;
  bool durable = false;
  {
    MutexLock lock(&mu_);
    WalEntry e;
    e.type = WalOpType::kSetNodeState;
    e.a = id;
    e.flag = static_cast<std::uint8_t>(state);
    e.token = token;
    HERMES_RETURN_NOT_OK(Precheck(e, *store_));
    HERMES_ASSIGN_OR_RETURN(lsn, Log(std::move(e)));
    HERMES_RETURN_NOT_OK(store_->SetNodeState(id, state));
    durable = durable_mutations_;
  }
  return durable ? wal_->SyncUntil(lsn) : Status::OK();
}

Status DurableGraphStore::AddNodeWeight(VertexId id, double delta,
                                        WalToken token) {
  std::uint64_t lsn = 0;
  bool durable = false;
  {
    MutexLock lock(&mu_);
    WalEntry e;
    e.type = WalOpType::kAddNodeWeight;
    e.a = id;
    e.weight = delta;
    e.token = token;
    HERMES_RETURN_NOT_OK(Precheck(e, *store_));
    HERMES_ASSIGN_OR_RETURN(lsn, Log(std::move(e)));
    HERMES_RETURN_NOT_OK(store_->AddNodeWeight(id, delta));
    durable = durable_mutations_;
  }
  return durable ? wal_->SyncUntil(lsn) : Status::OK();
}

Result<RecordId> DurableGraphStore::AddEdge(VertexId v, VertexId other,
                                            std::uint32_t type,
                                            bool other_is_local,
                                            WalToken token) {
  std::uint64_t lsn = 0;
  bool durable = false;
  RecordId rid = 0;
  {
    MutexLock lock(&mu_);
    WalEntry e;
    e.type = WalOpType::kAddEdge;
    e.a = v;
    e.b = other;
    e.key = type;
    e.flag = other_is_local ? 1 : 0;
    e.token = token;
    HERMES_RETURN_NOT_OK(Precheck(e, *store_));
    HERMES_ASSIGN_OR_RETURN(lsn, Log(std::move(e)));
    HERMES_ASSIGN_OR_RETURN(rid,
                            store_->AddEdge(v, other, type, other_is_local));
    durable = durable_mutations_;
  }
  if (durable) HERMES_RETURN_NOT_OK(wal_->SyncUntil(lsn));
  return rid;
}

Status DurableGraphStore::RemoveEdge(VertexId v, VertexId other,
                                     WalToken token) {
  std::uint64_t lsn = 0;
  bool durable = false;
  {
    MutexLock lock(&mu_);
    WalEntry e;
    e.type = WalOpType::kRemoveEdge;
    e.a = v;
    e.b = other;
    e.token = token;
    HERMES_RETURN_NOT_OK(Precheck(e, *store_));
    HERMES_ASSIGN_OR_RETURN(lsn, Log(std::move(e)));
    HERMES_RETURN_NOT_OK(store_->RemoveEdge(v, other));
    durable = durable_mutations_;
  }
  return durable ? wal_->SyncUntil(lsn) : Status::OK();
}

Status DurableGraphStore::SetNodeProperty(VertexId id, std::uint32_t key,
                                          const std::string& value,
                                          WalToken token) {
  std::uint64_t lsn = 0;
  bool durable = false;
  {
    MutexLock lock(&mu_);
    WalEntry e;
    e.type = WalOpType::kSetNodeProperty;
    e.a = id;
    e.key = key;
    e.payload = value;
    e.token = token;
    HERMES_RETURN_NOT_OK(Precheck(e, *store_));
    HERMES_ASSIGN_OR_RETURN(lsn, Log(std::move(e)));
    HERMES_RETURN_NOT_OK(store_->SetNodeProperty(id, key, value));
    durable = durable_mutations_;
  }
  return durable ? wal_->SyncUntil(lsn) : Status::OK();
}

Status DurableGraphStore::SetEdgeProperty(VertexId v, VertexId other,
                                          std::uint32_t key,
                                          const std::string& value,
                                          WalToken token) {
  std::uint64_t lsn = 0;
  bool durable = false;
  {
    MutexLock lock(&mu_);
    WalEntry e;
    e.type = WalOpType::kSetEdgeProperty;
    e.a = v;
    e.b = other;
    e.key = key;
    e.payload = value;
    e.token = token;
    HERMES_RETURN_NOT_OK(Precheck(e, *store_));
    HERMES_ASSIGN_OR_RETURN(lsn, Log(std::move(e)));
    HERMES_RETURN_NOT_OK(store_->SetEdgeProperty(v, other, key, value));
    durable = durable_mutations_;
  }
  return durable ? wal_->SyncUntil(lsn) : Status::OK();
}

}  // namespace hermes
