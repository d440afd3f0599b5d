// Shared types of the end-to-end benchmark: the generated input, the
// per-operation record every client keeps, and small statistics helpers.
// Everything here is benchmark-side; the program under test only ever
// sees HermesCluster's public API.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/hermes_cluster.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "partition/assignment.h"

namespace perfbench {

using hermes::Graph;
using hermes::HermesCluster;
using hermes::PartitionAssignment;
using hermes::PartitionId;
using hermes::VertexId;

/// Steady-clock nanoseconds since the first call (process start).
std::int64_t NowNs();

inline double NsToUs(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }
inline double NsToS(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

/// The fixed shape of every workload's input (see README.md).
inline constexpr double kTwitterScale = 0.25;   // 15,000 vertices
inline constexpr PartitionId kAlpha = 8;        // servers
inline constexpr double kSkewFactor = 2.0;      // §5.3.1 hot partition
inline constexpr PartitionId kInitialHot = 0;

/// The generated input: the twitter-profile graph with the §5.3.1 skew
/// already in its weights, and the Metis placement from before the skew.
struct Input {
  Graph graph;
  PartitionAssignment initial;
  double metis_s = 0.0;
};

/// Generates the dataset (the twitter profile at kTwitterScale with the
/// profile's own generator seed, so every run sees the same graph),
/// partitions it with Metis and applies the 2x hot-partition weight skew:
/// the set-up of MakeSkewedExperiment in bench/bench_common.h. The
/// benchmark's --seed drives the request streams, not the dataset.
Input MakeInput();

enum class OpKind : std::uint8_t { kRead1, kRead2, kInsertVertex, kInsertEdge };

inline bool IsRead(OpKind k) {
  return k == OpKind::kRead1 || k == OpKind::kRead2;
}

/// One client operation as generated from the seed. Vertex ids fit in 32
/// bits (the input has 15,000 vertices), which keeps OpRecord small.
struct Op {
  OpKind kind = OpKind::kRead1;
  std::uint32_t a = 0;  // read start / edge endpoint
  std::uint32_t b = 0;  // edge endpoint
};

/// What one client operation did. Latency runs from `start_ns` to `end_ns`,
/// across every retry of an Unavailable reply.
struct OpRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  Op op;
  std::uint32_t vertices_processed = 0;
  std::uint32_t unique_vertices = 0;
  std::uint32_t remote_hops = 0;
  std::int8_t epoch = -1;  // -1: warm-up, excluded from every metric
  bool ok = false;
  bool traced = false;
};

/// One load thread's operation records, in a buffer allocated and written
/// once up front: the memory it holds is resident and fixed before set-up,
/// so it does not grow with the rate the program under test reaches.
class OpLog {
 public:
  explicit OpLog(std::size_t capacity) : slots_(capacity) {}
  /// The next free record, or nullptr when the log is full.
  OpRecord* Append() {
    return used_ < slots_.size() ? &slots_[used_++] : nullptr;
  }
  bool full() const { return used_ == slots_.size(); }
  std::size_t size() const { return used_; }
  std::size_t bytes() const { return slots_.size() * sizeof(OpRecord); }
  const OpRecord* begin() const { return slots_.data(); }
  const OpRecord* end() const { return slots_.data() + used_; }

 private:
  std::vector<OpRecord> slots_;
  std::size_t used_ = 0;
};

/// A sorted sample with exact nearest-rank percentiles.
class Sample {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  std::size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }
  /// Nearest-rank percentile (q in [0,1]) of the values added so far.
  double Percentile(double q) {
    if (values_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values_.size())));
    rank = std::clamp<std::size_t>(rank, 1, values_.size());
    return values_[rank - 1];
  }
  /// The middle value; the mean of the two middle values when n is even.
  double Median() {
    if (values_.empty()) return 0.0;
    Percentile(0.5);  // sorts
    const std::size_t n = values_.size();
    return n % 2 == 1 ? values_[n / 2]
                      : (values_[n / 2 - 1] + values_[n / 2]) / 2.0;
  }
  double Mean() const {
    if (values_.empty()) return 0.0;
    double s = 0.0;
    for (double v : values_) s += v;
    return s / static_cast<double>(values_.size());
  }

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

/// One metric of the final report.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  // 0: not a percentile
};
using MetricMap = std::map<std::string, Metric>;

/// Peak resident set size of this process in MB (VmHWM).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
