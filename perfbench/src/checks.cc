#include "checks.h"

#include <algorithm>
#include <limits>
#include <sstream>

namespace perfbench {

namespace {
constexpr std::size_t kMaxMessages = 12;
constexpr std::int64_t kAlways = std::numeric_limits<std::int64_t>::min();
}  // namespace

void CheckReport::Fail(const std::string& message) {
  ++failures_;
  if (messages_.size() < kMaxMessages) messages_.push_back(message);
}

Mirror::Mirror(const Graph& initial) : adjacency_(initial.NumVertices()) {
  for (VertexId v = 0; v < initial.NumVertices(); ++v) {
    for (VertexId w : initial.Neighbors(v)) {
      adjacency_[v].push_back(Edge{w, kAlways, kAlways});
    }
  }
  num_edges_ = initial.NumEdges();
}

void Mirror::AddEdge(VertexId u, VertexId v, std::int64_t start_ns,
                     std::int64_t end_ns) {
  adjacency_[u].push_back(Edge{v, start_ns, end_ns});
  if (u != v) adjacency_[v].push_back(Edge{u, start_ns, end_ns});
  ++num_edges_;
}

std::vector<VertexId> Mirror::SortedNeighbors(VertexId v) const {
  std::vector<VertexId> out;
  out.reserve(adjacency_[v].size());
  for (const Edge& e : adjacency_[v]) out.push_back(e.to);
  std::sort(out.begin(), out.end());
  return out;
}

// Mirrors HermesCluster::ExecuteRead's level-synchronous traversal: every
// neighbor entry of a level vertex is one processed vertex; first visits
// are unique vertices and form the next level.
template <typename Present>
std::pair<std::uint64_t, std::uint64_t> Mirror::Traverse(VertexId start,
                                                         int hops,
                                                         Present present) {
  if (seen_.size() < adjacency_.size()) seen_.resize(adjacency_.size(), 0);
  if (++stamp_ == 0) {
    std::fill(seen_.begin(), seen_.end(), 0);
    stamp_ = 1;
  }
  std::uint64_t processed = 1;
  std::uint64_t unique = 1;
  seen_[start] = stamp_;
  std::vector<VertexId> level{start};
  std::vector<VertexId> next;
  for (int depth = 0; depth < hops && !level.empty(); ++depth) {
    next.clear();
    for (VertexId v : level) {
      for (const Edge& e : adjacency_[v]) {
        if (!present(e)) continue;
        ++processed;
        if (seen_[e.to] != stamp_) {
          seen_[e.to] = stamp_;
          ++unique;
          next.push_back(e.to);
        }
      }
    }
    level.swap(next);
  }
  return {processed, unique};
}

Mirror::ReadExpectation Mirror::Expect(VertexId start, int hops,
                                       std::int64_t start_ns,
                                       std::int64_t end_ns) {
  // Acknowledged before the read began: certainly visible. Issued before
  // the read ended: possibly visible.
  const auto definite = [start_ns](const Edge& e) {
    return e.end_ns < start_ns;
  };
  const auto possible = [end_ns](const Edge& e) {
    return e.start_ns < end_ns;
  };
  const auto lo = Traverse(start, hops, definite);
  const auto hi = Traverse(start, hops, possible);
  ReadExpectation out;
  out.processed = Bounds{lo.first, hi.first};
  out.unique = Bounds{lo.second, hi.second};
  return out;
}

void CheckReads(Mirror* mirror, const std::vector<const OpRecord*>& reads,
                int degree_skew, CheckReport* report) {
  for (const OpRecord* r : reads) {
    if (!r->ok) continue;
    const int hops = r->op.kind == OpKind::kRead1 ? 1 : 2;
    Mirror::ReadExpectation want =
        mirror->Expect(r->op.a, hops, r->start_ns, r->end_ns);
    if (hops == 1) {
      want.processed.lo += degree_skew;
      want.processed.hi += degree_skew;
    }
    const bool good = want.processed.Holds(r->vertices_processed) &&
                      want.unique.Holds(r->unique_vertices);
    if (!good) {
      std::ostringstream msg;
      msg << hops << "-hop read of " << r->op.a << ": vertices_processed "
          << r->vertices_processed << " not in [" << want.processed.lo << ", "
          << want.processed.hi << "] or unique_vertices " << r->unique_vertices
          << " not in [" << want.unique.lo << ", " << want.unique.hi << "]";
      report->Fail(msg.str());
    }
  }
}

void CheckWeightSum(const HermesCluster& cluster, double expected,
                    const std::string& where, CheckReport* report) {
  const Graph& g = cluster.graph();
  double sum = 0.0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) sum += g.VertexWeight(v);
  // Weights are whole numbers well below 2^53, so the sums are exact.
  if (sum != expected) {
    std::ostringstream msg;
    msg.precision(17);
    msg << where << ": weight sum " << sum << " != expected " << expected
        << " (initial + successful reads + inserted weights)";
    report->Fail(msg.str());
  }
}

void CheckRecovered(const HermesCluster& recovered, const Mirror& mirror,
                    CheckReport* report) {
  const Graph& g = recovered.graph();
  if (g.NumVertices() != mirror.NumVertices() ||
      g.NumEdges() != mirror.NumEdges()) {
    std::ostringstream msg;
    msg << "recovered cluster has " << g.NumVertices() << " vertices / "
        << g.NumEdges() << " edges; acknowledged writes give "
        << mirror.NumVertices() << " / " << mirror.NumEdges();
    report->Fail(msg.str());
    return;
  }
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    std::vector<VertexId> got(g.Neighbors(v).begin(), g.Neighbors(v).end());
    std::sort(got.begin(), got.end());
    if (got != mirror.SortedNeighbors(v)) {
      report->Fail("recovered adjacency of vertex " + std::to_string(v) +
                   " differs from the acknowledged writes");
      return;
    }
  }
}

}  // namespace perfbench
