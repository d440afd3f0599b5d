// Output checks. Every run ends with them, after the timed window; any
// failure makes the run exit nonzero.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {

/// Collects check failures (the first few messages, and a total).
class CheckReport {
 public:
  void Fail(const std::string& message);
  void Expect(bool ok, const std::string& message) {
    if (!ok) Fail(message);
  }
  bool ok() const { return failures_ == 0; }
  std::uint64_t failures() const { return failures_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t failures_ = 0;
  std::vector<std::string> messages_;
};

/// The benchmark's own copy of the graph: the generated edges plus every
/// acknowledged inserted edge, each with the interval of the call that
/// inserted it. A read that overlapped an insert may or may not see it, so
/// expectations come as [lo, hi] bounds; without concurrent inserts they
/// are exact.
class Mirror {
 public:
  explicit Mirror(const Graph& initial);

  void AddVertex() { adjacency_.emplace_back(); }
  void AddEdge(VertexId u, VertexId v, std::int64_t start_ns,
               std::int64_t end_ns);

  std::size_t NumVertices() const { return adjacency_.size(); }
  std::size_t NumEdges() const { return num_edges_; }
  /// Every edge of `v` (generated and inserted), sorted.
  std::vector<VertexId> SortedNeighbors(VertexId v) const;

  struct Bounds {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    bool Holds(std::uint64_t x) const { return lo <= x && x <= hi; }
  };
  struct ReadExpectation {
    Bounds processed;
    Bounds unique;
  };
  /// What ExecuteRead(start, hops) over [start_ns, end_ns] may return.
  ReadExpectation Expect(VertexId start, int hops, std::int64_t start_ns,
                         std::int64_t end_ns);

 private:
  struct Edge {
    VertexId to;
    std::int64_t start_ns;  // generated edges: the minimum time
    std::int64_t end_ns;
  };
  // Traversal counts with the edges admitted by `present`.
  template <typename Present>
  std::pair<std::uint64_t, std::uint64_t> Traverse(VertexId start, int hops,
                                                   Present present);

  std::vector<std::vector<Edge>> adjacency_;
  std::size_t num_edges_ = 0;
  std::vector<std::uint32_t> seen_;  // visit stamps for Traverse
  std::uint32_t stamp_ = 0;
};

/// Checks every recorded read against the mirror. `degree_skew` is added
/// to every 1-hop expectation; nonzero only in the self-test, which proves
/// that a wrong expectation fails the check.
void CheckReads(Mirror* mirror, const std::vector<const OpRecord*>& reads,
                int degree_skew, CheckReport* report);

/// The weight sum of the cluster's graph view must equal the initial sum
/// plus one per successful read plus every inserted vertex's weight: each
/// read's weight bump applied exactly once. Quiesced cluster only.
void CheckWeightSum(const HermesCluster& cluster, double expected,
                    const std::string& where, CheckReport* report);

/// A recovered cluster must hold exactly the mirror's vertices and edges
/// (every acknowledged write, nothing else).
void CheckRecovered(const HermesCluster& recovered, const Mirror& mirror,
                    CheckReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
