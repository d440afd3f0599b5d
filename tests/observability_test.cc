#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "cluster/hermes_cluster.h"
#include "common/metrics.h"
#include "gen/social_graph.h"
#include "partition/hash_partitioner.h"
#include "workload/driver.h"
#include "workload/trace.h"

namespace hermes {
namespace {

/// Each test works on its own metric names; the registry is process-global
/// and other tests in the binary may have incremented shared counters.
TEST(MetricsRegistryTest, CounterPointerIsStableAndAccumulates) {
  auto& registry = MetricsRegistry::Global();
  Counter* c = registry.GetCounter("obs_test.counter");
  EXPECT_EQ(c, registry.GetCounter("obs_test.counter"));
  c->Reset();
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->Value(), 42u);
  EXPECT_EQ(registry.Snapshot().counters.at("obs_test.counter"), 42u);
}

TEST(MetricsRegistryTest, GaugeSetAndAdd) {
  auto& registry = MetricsRegistry::Global();
  Gauge* g = registry.GetGauge("obs_test.gauge");
  g->Set(2.5);
  g->Add(-1.0);
  EXPECT_DOUBLE_EQ(g->Value(), 1.5);
  EXPECT_DOUBLE_EQ(registry.Snapshot().gauges.at("obs_test.gauge"), 1.5);
}

TEST(MetricsRegistryTest, HistogramSummaryQuantiles) {
  auto& registry = MetricsRegistry::Global();
  Histogram* hist = registry.GetHistogram("obs_test.hist");
  EXPECT_EQ(hist, registry.GetHistogram("obs_test.hist"));
  hist->Reset();
  for (std::uint64_t i = 1; i <= 100; ++i) hist->Record(i);
  const auto snap = registry.Snapshot();
  const auto& h = snap.histograms.at("obs_test.hist");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.sum, 5050.0);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  EXPECT_NEAR(h.mean, 50.5, 1e-9);
  // Log-linear buckets: every quantile is within 3.2% of the exact one.
  EXPECT_NEAR(h.p50, 50.5, 0.032 * 50.5);
  EXPECT_NEAR(h.p90, 90.0, 0.032 * 90.0);
  EXPECT_NEAR(h.p99, 99.0, 0.032 * 99.0);
  EXPECT_LE(h.p999, 100.0);
}

TEST(MetricsRegistryTest, ResetAllKeepsRegisteredPointersValid) {
  auto& registry = MetricsRegistry::Global();
  Counter* c = registry.GetCounter("obs_test.reset_counter");
  Gauge* g = registry.GetGauge("obs_test.reset_gauge");
  Histogram* h = registry.GetHistogram("obs_test.reset_hist");
  c->Increment(7);
  g->Set(3.0);
  h->Record(11);
  registry.ResetAll();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_DOUBLE_EQ(g->Value(), 0.0);
  EXPECT_EQ(h->Summary().count, 0u);
  // The names stay registered; the cached pointers keep working.
  c->Increment();
  h->Record(4);
  const auto snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("obs_test.reset_counter"), 1u);
  EXPECT_EQ(snap.histograms.at("obs_test.reset_hist").count, 1u);
  EXPECT_DOUBLE_EQ(snap.histograms.at("obs_test.reset_hist").max, 4.0);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsDoNotLoseCounts) {
  auto& registry = MetricsRegistry::Global();
  Counter* c = registry.GetCounter("obs_test.mt_counter");
  c->Reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      Counter* mine = registry.GetCounter("obs_test.mt_counter");
      for (int i = 0; i < kPerThread; ++i) mine->Increment();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c->Value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

#ifndef HERMES_NO_TRACING
TEST(TraceLogTest, RecordsSpansOldestFirst) {
  auto& log = TraceLog::Global();
  log.Clear();
  {
    TraceSpan span("obs_test.span",
                   MetricsRegistry::Global().GetHistogram("obs_test.span"));
  }
  const auto events = log.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "obs_test.span");
  EXPECT_EQ(log.total_recorded(), 1u);
  EXPECT_EQ(log.dropped(), 0u);
  // The span also feeds the same-named latency histogram.
  const auto snap = MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snap.histograms.at("obs_test.span").count, 1u);
}
#endif  // HERMES_NO_TRACING

TEST(TraceLogTest, RingOverwritesOldestAndCountsDrops) {
  auto& log = TraceLog::Global();
  log.Clear();
  const std::size_t total = TraceLog::kCapacity + 10;
  for (std::size_t i = 0; i < total; ++i) {
    log.Record("obs_test.flood", i, 1);
  }
  const auto events = log.Events();
  ASSERT_EQ(events.size(), TraceLog::kCapacity);
  EXPECT_EQ(log.total_recorded(), total);
  EXPECT_EQ(log.dropped(), 10u);
  // Oldest first: the first 10 records were overwritten.
  EXPECT_EQ(events.front().start_us, 10u);
  EXPECT_EQ(events.back().start_us, total - 1);
}

TEST(TraceLogTest, MultipleFullWraparoundsKeepOrderAndDropCount) {
  // Wrap the 4096-slot ring twice and a bit: the buffer must hold
  // exactly the newest kCapacity events in oldest-first order, with
  // every older record counted as dropped and the write position
  // mid-ring (total % kCapacity != 0 exercises the unaligned case).
  auto& log = TraceLog::Global();
  log.Clear();
  const std::size_t total = 2 * TraceLog::kCapacity + 123;
  for (std::size_t i = 0; i < total; ++i) {
    log.Record("obs_test.wrap", i, 1);
  }
  const auto events = log.Events();
  ASSERT_EQ(events.size(), TraceLog::kCapacity);
  EXPECT_EQ(log.total_recorded(), total);
  EXPECT_EQ(log.dropped(), total - TraceLog::kCapacity);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].start_us, total - TraceLog::kCapacity + i);
  }
}

TEST(TraceLogTest, ClearResetsRingDropsAndTotals) {
  auto& log = TraceLog::Global();
  log.Clear();
  for (std::size_t i = 0; i < TraceLog::kCapacity + 5; ++i) {
    log.Record("obs_test.clear", i, 1);
  }
  ASSERT_GT(log.dropped(), 0u);
  log.Clear();
  EXPECT_TRUE(log.Events().empty());
  EXPECT_EQ(log.total_recorded(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  // The ring keeps working after a mid-life Clear().
  log.Record("obs_test.clear", 7, 1);
  ASSERT_EQ(log.Events().size(), 1u);
  EXPECT_EQ(log.Events()[0].start_us, 7u);
}

TEST(ClusterMetricsTest, SnapshotExposesClusterCountersAndGauges) {
  MetricsRegistry::Global().ResetAll();
  SocialGraphOptions gopt;
  gopt.num_vertices = 800;
  gopt.seed = 13;
  Graph g = GenerateSocialGraph(gopt);
  const auto asg = HashPartitioner(1).Partition(g, 4);
  HermesCluster cluster(std::move(g), asg);

  TraceOptions topt;
  topt.num_requests = 300;
  topt.write_fraction = 0.2;
  const auto trace = GenerateTrace(cluster.graph(), cluster.assignment(), topt);
  (void)RunWorkload(&cluster, trace);

  const MetricsSnapshot snap = cluster.MetricsSnapshot();
  EXPECT_GT(snap.counters.at("cluster.reads"), 0u);
  EXPECT_GT(snap.counters.at("cluster.writes"), 0u);
  EXPECT_GT(snap.counters.at("driver.ops_completed"), 0u);
  EXPECT_GT(snap.gauges.at("cluster.num_vertices"), 0.0);
  EXPECT_GT(snap.gauges.at("cluster.num_edges"), 0.0);
  EXPECT_GT(snap.gauges.at("cluster.store_bytes"), 0.0);
  EXPECT_GE(snap.gauges.at("cluster.imbalance"), 1.0);
  // The gauges mirror the quiesced accessors exactly.
  EXPECT_DOUBLE_EQ(snap.gauges.at("cluster.num_vertices"),
                   static_cast<double>(cluster.graph().NumVertices()));
}

TEST(ClusterMetricsTest, RepartitionRecordsMigrationMetrics) {
  MetricsRegistry::Global().ResetAll();
  SocialGraphOptions gopt;
  gopt.num_vertices = 1500;
  gopt.community_mixing = 0.1;
  gopt.seed = 19;
  Graph g = GenerateSocialGraph(gopt);
  const auto asg = HashPartitioner(1).Partition(g, 4);
  HermesCluster cluster(std::move(g), asg);

  // Skewed reads drive up partition 0's weight so the repartitioner has
  // real work to do, then migration metrics must reflect the diff.
  TraceOptions topt;
  topt.num_requests = 2000;
  topt.hot_partition = 0;
  topt.skew_factor = 3.0;
  const auto trace = GenerateTrace(cluster.graph(), cluster.assignment(), topt);
  (void)RunWorkload(&cluster, trace);
  const auto stats = cluster.RunLightweightRepartition();
  ASSERT_OK(stats);

  const MetricsSnapshot snap = cluster.MetricsSnapshot();
  EXPECT_EQ(snap.counters.at("cluster.migrations"), 1u);
  EXPECT_EQ(snap.counters.at("cluster.vertices_migrated"),
            stats->vertices_moved);
  EXPECT_EQ(snap.counters.at("cluster.migration_bytes_copied"),
            stats->bytes_copied);
  EXPECT_GT(snap.counters.at("repartitioner.iterations"), 0u);
#ifndef HERMES_NO_TRACING
  // The repartition + migration phases left spans behind.
  bool saw_repartition = false;
  for (const TraceEvent& e : TraceLog::Global().Events()) {
    if (std::string(e.name) == "cluster.repartition") saw_repartition = true;
  }
  EXPECT_TRUE(saw_repartition);
  EXPECT_GE(snap.histograms.at("cluster.repartition").count, 1u);
#endif
}

}  // namespace
}  // namespace hermes
