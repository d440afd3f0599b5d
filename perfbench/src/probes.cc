#include "probes.h"

#include <memory>
#include <variant>

#include "common/metrics.h"
#include "graphdb/graph_store.h"
#include "net/bus.h"
#include "net/inproc_transport.h"
#include "net/message.h"
#include "server/partition_server.h"

namespace perfbench {

std::vector<double> PingProbe(int calls, SpanBuffer* spans) {
  using namespace hermes;
  std::vector<double> samples;
  InProcTransport transport{InProcTransport::Options{}};
  auto server = PartitionServer::Open(0, 0, &transport, {});
  if (!server.ok()) return samples;
  MessageBus bus(&transport, 1, MessageBus::Options{});
  if (bus.Start().ok()) {
    samples.reserve(static_cast<std::size_t>(calls));
    for (int i = 0; i < calls; ++i) {
      ScopedSpan span(spans, "probe.ping");
      Envelope request;
      request.payload = HealthRequest{};
      const std::int64_t t0 = NowNs();
      const Result<Envelope> reply = bus.Call(0, std::move(request));
      const std::int64_t t1 = NowNs();
      if (!reply.ok() ||
          std::get_if<HealthReply>(&reply->payload) == nullptr) {
        samples.clear();
        break;
      }
      samples.push_back(NsToUs(t1 - t0));
    }
  }
  bus.Shutdown();
  transport.Shutdown();
  return samples;
}

double NeighborsProbe(HermesCluster* cluster,
                      const std::vector<VertexId>& starts, SpanBuffer* spans) {
  ScopedSpan span(spans, "probe.neighbors");
  Sample per_edge_ns;
  for (int pass = 0; pass < 3; ++pass) {
    std::uint64_t edges = 0;
    const std::int64_t t0 = NowNs();
    for (VertexId v : starts) {
      hermes::GraphStore* store =
          cluster->store(cluster->assignment().PartitionOf(v));
      const auto neighbors = store->Neighbors(v);
      if (neighbors.ok()) edges += neighbors->size();
    }
    const std::int64_t t1 = NowNs();
    if (edges > 0) {
      per_edge_ns.Add(static_cast<double>(t1 - t0) /
                      static_cast<double>(edges));
    }
  }
  return per_edge_ns.Median();
}

ReadProbe OneHopReadProbe(HermesCluster* cluster,
                          const std::vector<VertexId>& starts,
                          SpanBuffer* spans) {
  hermes::Counter* calls =
      hermes::MetricsRegistry::Global().GetCounter("msg.calls");
  ReadProbe out;
  std::uint64_t edges = 0;
  std::int64_t read_ns = 0;
  const std::uint64_t calls_before = calls->Value();
  for (VertexId v : starts) {
    ScopedSpan span(spans, "probe.read_1hop");
    const std::int64_t t0 = NowNs();
    const auto run = cluster->ExecuteRead(v, 1);
    read_ns += NowNs() - t0;
    if (run.ok()) {
      ++out.ok_reads;
      edges += run->vertices_processed - 1;
    }
  }
  if (!starts.empty()) {
    const double n = static_cast<double>(starts.size());
    out.bus_calls_per_read =
        static_cast<double>(calls->Value() - calls_before) / n;
    out.mean_read_us = NsToUs(read_ns) / n;
    out.mean_edges = static_cast<double>(edges) / n;
  }
  return out;
}

LogicalProbe RepartitionerProbe(const HermesCluster& cluster,
                                SpanBuffer* spans) {
  ScopedSpan span(spans, "probe.repartitioner");
  Graph graph = cluster.graph();
  PartitionAssignment assignment = cluster.assignment();
  hermes::AuxiliaryData aux = cluster.aux();
  const hermes::LightweightRepartitioner repartitioner(
      cluster.options().repartitioner);
  LogicalProbe out;
  const std::int64_t t0 = NowNs();
  out.result = repartitioner.Run(graph, &assignment, &aux);
  out.seconds = NsToS(NowNs() - t0);
  return out;
}

}  // namespace perfbench
