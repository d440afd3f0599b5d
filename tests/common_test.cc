#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

#include "common/histogram.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace hermes {
namespace {

// --- Status -------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_OK(st);
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing record 42");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "missing record 42");
  EXPECT_EQ(st.ToString(), "NotFound: missing record 42");
}

TEST(StatusTest, AllFactoryFunctionsSetMatchingCode) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::TimedOut("x").IsTimedOut());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::Unavailable("x").IsUnavailable());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, CopyIsCheapAndShared) {
  Status a = Status::Aborted("abc");
  Status b = a;  // shared state
  EXPECT_TRUE(b.IsAborted());
  EXPECT_EQ(b.message(), "abc");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = [] { return Status::IOError("disk"); };
  auto wrapper = [&]() -> Status {
    HERMES_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_TRUE(wrapper().IsIOError());
}

// --- Result -------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 7;
  ASSERT_OK(r);
  EXPECT_EQ(*r, 7);
  EXPECT_OK(r.status());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r = Status::OK();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("payload");
  std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "payload");
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = []() -> Result<int> { return 5; };
  auto fail = []() -> Result<int> { return Status::Aborted("x"); };
  auto chain = [&](bool ok_path) -> Result<int> {
    HERMES_ASSIGN_OR_RETURN(int v, ok_path ? produce() : fail());
    return v * 2;
  };
  EXPECT_EQ(*chain(true), 10);
  EXPECT_TRUE(chain(false).status().IsAborted());
}

// --- Rng ----------------------------------------------------------------

TEST(RngTest, DeterministicBySeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleIsInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  const double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(RngTest, PowerLawRespectsMinimum) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.PowerLaw(2.5, 3.0), 3.0);
  }
}

TEST(RngTest, PowerLawMeanMatchesTheory) {
  // For exponent a > 2, mean = x_min * (a-1)/(a-2).
  Rng rng(19);
  double sum = 0.0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) sum += rng.PowerLaw(3.0, 1.0);
  EXPECT_NEAR(sum / trials, 2.0, 0.1);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SampleFromCumulativeRespectsWeights) {
  Rng rng(29);
  // Weights 1, 3 -> second picked ~75%.
  std::vector<double> cum{1.0, 4.0};
  int second = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (SampleFromCumulative(cum, &rng) == 1) ++second;
  }
  EXPECT_NEAR(static_cast<double>(second) / trials, 0.75, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(31);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

// --- Histogram ------------------------------------------------------------

// The histogram's error bound: a reported quantile is within 3.2% of the
// exact nearest-rank sample.
constexpr double kQuantileTolerance = 0.032;

// Nearest-rank quantile of `sorted`, the rule Histogram::Summary uses.
double ExactQuantile(const std::vector<std::uint64_t>& sorted,
                     std::uint64_t per_mille) {
  const std::uint64_t rank = (sorted.size() * per_mille + 999) / 1000;
  return static_cast<double>(sorted[rank - 1]);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  const HistogramSummary s = h.Summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p999, 0.0);
}

TEST(HistogramTest, TracksMinMaxMean) {
  Histogram h;
  h.Record(1);
  h.Record(2);
  h.Record(3);
  const HistogramSummary s = h.Summary();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 6.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
}

TEST(HistogramTest, ValuesBelowSubBucketCountAreExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    h.Reset();
    h.Record(v);
    h.Record(v);
    h.Record(Histogram::kSubBuckets - 1);
    // Two of the three samples are v, so the median is v, unclamped
    // whenever v < 63.
    EXPECT_DOUBLE_EQ(h.Summary().p50, static_cast<double>(v)) << v;
  }
  h.Reset();
  for (std::uint64_t v = 0; v < Histogram::kSubBuckets; ++v) h.Record(v);
  const HistogramSummary s = h.Summary();
  EXPECT_DOUBLE_EQ(s.p50, 31.0);  // the 32nd smallest of 0..63
  EXPECT_DOUBLE_EQ(s.p90, 57.0);  // rank ceil(57.6) = 58
  EXPECT_DOUBLE_EQ(s.p99, 63.0);
}

TEST(HistogramTest, QuantileApproximatesMedian) {
  Histogram h;
  for (std::uint64_t i = 1; i <= 10000; ++i) h.Record(i);
  // The exact nearest-rank median of 1..10000 is 5000.
  EXPECT_NEAR(h.Summary().p50, 5000.0, kQuantileTolerance * 5000.0);
}

// Windows [base, 2 * base) from 1 to 10^9: every quantile of every window
// lands within the error bound of the exact one.
TEST(HistogramTest, QuantilesWithinBoundFromOneToBillion) {
  Histogram h;
  Rng rng(17);
  for (double base = 1.0; base <= 1e9; base *= 1.37) {
    h.Reset();
    std::vector<std::uint64_t> samples;
    for (int i = 0; i < 2000; ++i) {
      const auto v = static_cast<std::uint64_t>(
          base * (1.0 + rng.NextDouble()));
      samples.push_back(v);
      h.Record(v);
    }
    std::sort(samples.begin(), samples.end());
    const HistogramSummary s = h.Summary();
    ASSERT_EQ(s.count, samples.size());
    const std::pair<double, std::uint64_t> checks[] = {
        {s.p50, 500}, {s.p90, 900}, {s.p99, 990}, {s.p999, 999}};
    for (const auto& [reported, per_mille] : checks) {
      const double exact = ExactQuantile(samples, per_mille);
      EXPECT_LE(std::abs(reported - exact), kQuantileTolerance * exact)
          << "base " << base << " q " << per_mille << "/1000";
    }
    EXPECT_DOUBLE_EQ(s.min, static_cast<double>(samples.front()));
    EXPECT_DOUBLE_EQ(s.max, static_cast<double>(samples.back()));
  }
}

TEST(HistogramTest, QuantileIsMonotone) {
  Histogram h;
  Rng rng(5);
  // Heavy-tailed: mostly small, a few very large.
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.NextDouble();
    h.Record(static_cast<std::uint64_t>(10.0 / (1.0 - 0.999999 * u)));
  }
  const HistogramSummary s = h.Summary();
  EXPECT_LE(s.min, s.p50);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, s.p999);
  EXPECT_LE(s.p999, s.max);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Record(1u << 20);
  h.Reset();
  const HistogramSummary empty = h.Summary();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.sum, 0.0);
  EXPECT_EQ(empty.max, 0.0);
  // Min and max restart from the first sample after the reset, and the
  // quantiles are clamped to them (the bucket's midpoint is not 1000003).
  h.Record(1000003);
  const HistogramSummary s = h.Summary();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 1000003.0);
  EXPECT_DOUBLE_EQ(s.max, 1000003.0);
  EXPECT_DOUBLE_EQ(s.p50, 1000003.0);
  EXPECT_DOUBLE_EQ(s.p999, 1000003.0);
}

TEST(HistogramTest, ConcurrentRecordsKeepExactCountAndSum) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(i * static_cast<std::uint64_t>(t + 1));
      }
    });
  }
  for (auto& w : workers) w.join();
  const HistogramSummary s = h.Summary();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  // sum over t of (t + 1) * (0 + 1 + ... + kPerThread - 1)
  const std::uint64_t triangle = kPerThread * (kPerThread - 1) / 2;
  EXPECT_DOUBLE_EQ(s.sum, static_cast<double>(triangle * (1 + 2 + 3 + 4)));
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, static_cast<double>((kPerThread - 1) * kThreads));
}

// --- ThreadPool ------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, AtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace hermes
