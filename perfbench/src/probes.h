// Probes: single-layer measurements the traced run takes on a quiesced
// system, by timing calls into each layer's public functions.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <vector>

#include "bench.h"
#include "partition/lightweight.h"
#include "trace.h"

namespace perfbench {

/// net: MessageBus::Call(HealthRequest) round trips against a standalone
/// InProcTransport with one PartitionServer. Returns one sample (µs) per
/// call; empty when the rig cannot start.
std::vector<double> PingProbe(int calls, SpanBuffer* spans);

/// graphdb: GraphStore::Neighbors over `starts` on the quiesced stores.
/// Returns nanoseconds per returned edge (median of three passes).
double NeighborsProbe(HermesCluster* cluster,
                      const std::vector<VertexId>& starts, SpanBuffer* spans);

/// cluster: single-client 1-hop reads on the quiesced cluster. Reports
/// bus calls per read (from the msg.calls counter) and the mean
/// ExecuteRead time. Every read bumps its start vertex's weight.
struct ReadProbe {
  double bus_calls_per_read = 0.0;
  double mean_read_us = 0.0;
  double mean_edges = 0.0;
  std::uint64_t ok_reads = 0;
};
ReadProbe OneHopReadProbe(HermesCluster* cluster,
                          const std::vector<VertexId>& starts,
                          SpanBuffer* spans);

/// partition: times LightweightRepartitioner::Run on copies of the
/// quiesced cluster's graph, assignment and auxiliary data.
struct LogicalProbe {
  double seconds = 0.0;
  hermes::RepartitionResult result;
};
LogicalProbe RepartitionerProbe(const HermesCluster& cluster,
                                SpanBuffer* spans);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
