#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "gen/profiles.h"
#include "partition/metrics.h"
#include "partition/multilevel.h"
#include "probes.h"
#include "trace.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using hermes::MetricsSnapshot;
using hermes::MigrationStats;
using hermes::Result;
using hermes::Status;

// --- Shape of the workloads (README.md) -----------------------------------
constexpr int kSetupRepeats = 3;
constexpr int kEpochs = 6;
constexpr int kSlicesPerEpoch = 4;  // closed-loop latency slices
constexpr int kClosedClients = 4;
constexpr std::size_t kDriverThread = 4;  // span buffer of the driver
constexpr double kWarmupS = 1.0;
constexpr double kTwoHopShare = 0.2;
constexpr double kWriteShare = 0.3;     // Fig. 10's heaviest write mix
// Of the writes, the share that are new users (InsertVertex); the rest are
// new friendships. The §5.3.3 write mix of the repo's own Fig. 10 bench
// (TraceOptions::vertex_insert_share in src/workload/trace.h).
constexpr double kNewUserShare = 0.1;
// Capacity of each client's op log (OpLog) per second of run. It is about
// ten times the rate the seed reaches, so the log does not fill; a run
// that fills it fails its checks instead of dropping records.
constexpr double kMaxOpsPerClientPerS = 20000.0;
constexpr int kTailWrites = 18000;      // durable tail, in kTailBatches
constexpr int kTailBatches = 9;
constexpr int kFreshRepartitions = 7;
constexpr int kRecoverRepeats = 5;
constexpr int kPingCalls = 5000;
constexpr std::size_t kProbeReads = 500;
constexpr std::int64_t kGiveUpNs = 10'000'000'000;  // retrying Unavailable
// Vertices Validate() cross-checks at each quiesce point. A full pass
// over this input is ~500k bus calls (about 20 s), so each quiesce point
// checks its own random sample instead.
constexpr std::size_t kValidateSample = 300;

// --- Generated input --------------------------------------------------------

/// Draws read start vertices so that the hot partition's users (by the
/// initial Metis placement) are read twice as often as everyone else.
class StartSampler {
 public:
  explicit StartSampler(const Input& input)
      : initial_(&input.initial),
        n_(input.graph.NumVertices()),
        members_(kAlpha) {
    for (VertexId v = 0; v < n_; ++v) {
      members_[input.initial.PartitionOf(v)].push_back(
          static_cast<std::uint32_t>(v));
    }
  }

  std::uint32_t Draw(hermes::Rng* rng, PartitionId hot) const {
    const std::vector<std::uint32_t>& h = members_[hot];
    const double hot_n = static_cast<double>(h.size());
    const double p_hot =
        kSkewFactor * hot_n /
        (kSkewFactor * hot_n + static_cast<double>(n_) - hot_n);
    if (!h.empty() && rng->NextDouble() < p_hot) {
      return h[rng->Uniform(h.size())];
    }
    for (;;) {
      const std::uint32_t v = Uniform(rng);
      if (initial_->PartitionOf(v) != hot) return v;
    }
  }

  std::uint32_t Uniform(hermes::Rng* rng) const {
    return static_cast<std::uint32_t>(rng->Uniform(n_));
  }
  std::size_t n() const { return n_; }

 private:
  const PartitionAssignment* initial_;
  std::size_t n_;
  std::vector<std::vector<std::uint32_t>> members_;
};

/// A set of vertex pairs with a capacity fixed, allocated and written at
/// construction (open addressing; key 0 marks a free slot, and a pair of
/// distinct vertices never has key 0), so its memory does not grow with
/// the write rate.
class PairSet {
 public:
  explicit PairSet(std::size_t max_pairs) : max_pairs_(max_pairs) {
    std::size_t slots = 1;
    while (slots < 2 * max_pairs + 1) slots *= 2;
    slots_.assign(slots, 0);
  }
  /// Inserts {u, v} (u != v); false when it is already present or the set
  /// is full.
  bool Insert(std::uint32_t u, std::uint32_t v) {
    if (size_ == max_pairs_) return false;
    const std::uint64_t key =
        (std::uint64_t{std::min(u, v)} << 32) | std::max(u, v);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = (key * 0x9e3779b97f4a7c15ULL) >> 20 & mask;;
         i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
      if (slots_[i] == 0) {
        slots_[i] = key;
        ++size_;
        return true;
      }
    }
  }
  std::size_t bytes() const { return slots_.size() * sizeof(std::uint64_t); }

 private:
  std::size_t max_pairs_;
  std::size_t size_ = 0;
  std::vector<std::uint64_t> slots_;
};

/// One client's operation stream, a pure function of (seed, client).
/// Writes never repeat an edge: client c only creates pairs with
/// (u + v) % clients == c, never one the generated graph already has, and
/// never the same pair twice (`created` remembers them; the client's op
/// log fills before it does).
class OpGenerator {
 public:
  OpGenerator(const Input& input, const StartSampler& sampler,
              std::uint64_t seed, std::uint32_t client, std::uint32_t clients,
              double write_share, PairSet* created)
      : graph_(&input.graph),
        sampler_(&sampler),
        rng_(seed * 0x9e3779b97f4a7c15ULL + client + 1),
        client_(client),
        clients_(clients),
        write_share_(write_share),
        created_(created) {}

  Op Next(PartitionId hot) {
    if (write_share_ > 0.0 && rng_.NextDouble() < write_share_) {
      return NextWrite(hot);
    }
    Op op;
    op.kind = rng_.NextDouble() < kTwoHopShare ? OpKind::kRead2 : OpKind::kRead1;
    op.a = sampler_->Draw(&rng_, hot);
    return op;
  }

 private:
  Op NextWrite(PartitionId hot) {
    Op op;
    if (rng_.NextDouble() < kNewUserShare) {
      op.kind = OpKind::kInsertVertex;
      return op;
    }
    op.kind = OpKind::kInsertEdge;
    for (;;) {
      const std::uint32_t u = sampler_->Draw(&rng_, hot);
      const std::uint32_t v = sampler_->Uniform(&rng_);
      if (u == v || (u + v) % clients_ != client_) continue;
      if (graph_->HasEdge(u, v) || !created_->Insert(u, v)) continue;
      op.a = u;
      op.b = v;
      return op;
    }
  }

  const Graph* graph_;
  const StartSampler* sampler_;
  hermes::Rng rng_;
  std::uint32_t client_;
  std::uint32_t clients_;
  double write_share_;
  PairSet* created_;
};

// --- Session: the cluster under test plus the benchmark's bookkeeping ------

class Session {
 public:
  explicit Session(bool trace)
      : tracer_(trace ? std::make_unique<Tracer>(kDriverThread + 1)
                      : nullptr) {}

  SpanBuffer* spans(std::size_t thread, bool traced) {
    return traced && tracer_ ? tracer_->buffer(thread) : nullptr;
  }
  Tracer* tracer() { return tracer_.get(); }

  void NoteError(const Status& status) {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_error_.empty()) first_error_ = status.ToString();
  }
  std::string first_error() {
    std::lock_guard<std::mutex> lock(mu_);
    return first_error_;
  }

  std::atomic<std::uint64_t> ok_reads{0};
  std::atomic<std::uint64_t> ok_vertices{0};
  std::atomic<std::uint64_t> next_op_id{1};

 private:
  std::unique_ptr<Tracer> tracer_;
  std::mutex mu_;
  std::string first_error_;
};

/// Runs one client operation, retrying Unavailable (a vertex mid-chunk)
/// with the latency charged from the first attempt.
void ExecuteOp(HermesCluster* cluster, Session* session, const Op& op,
               SpanBuffer* spans, OpRecord* rec) {
  const std::uint64_t op_id =
      spans == nullptr ? 0 : session->next_op_id.fetch_add(1);
  ScopedSpan root(spans, "bench.op", op_id);
  rec->op = op;
  rec->traced = spans != nullptr;
  rec->start_ns = NowNs();
  for (;;) {
    Status status;
    switch (op.kind) {
      case OpKind::kRead1:
      case OpKind::kRead2: {
        ScopedSpan call(spans, "cluster.ExecuteRead", op_id);
        const auto run =
            cluster->ExecuteRead(op.a, op.kind == OpKind::kRead1 ? 1 : 2);
        status = run.status();
        if (run.ok()) {
          rec->vertices_processed =
              static_cast<std::uint32_t>(run->vertices_processed);
          rec->unique_vertices =
              static_cast<std::uint32_t>(run->unique_vertices);
          rec->remote_hops = static_cast<std::uint32_t>(run->remote_hops);
          session->ok_reads.fetch_add(1);
        }
        break;
      }
      case OpKind::kInsertVertex: {
        ScopedSpan call(spans, "cluster.InsertVertex", op_id);
        const auto id = cluster->InsertVertex(1.0);
        status = id.status();
        if (id.ok()) session->ok_vertices.fetch_add(1);
        break;
      }
      case OpKind::kInsertEdge: {
        ScopedSpan call(spans, "cluster.InsertEdge", op_id);
        status = cluster->InsertEdge(op.a, op.b);
        break;
      }
    }
    if (status.ok()) {
      rec->ok = true;
      break;
    }
    if (status.IsUnavailable() && NowNs() - rec->start_ns < kGiveUpNs) {
      std::this_thread::yield();
      continue;
    }
    session->NoteError(status);
    break;
  }
  rec->end_ns = NowNs();
}

// --- Phases: the driver hands every load thread the same phase ------------

struct Phase {
  int epoch = -1;  // -1: warm-up
  bool traced = false;
  std::int64_t end_ns = 0;  // stop issuing
};

class PhaseGate {
 public:
  explicit PhaseGate(int workers) : workers_(workers) {}

  void Begin(const Phase& phase) {
    std::lock_guard<std::mutex> lock(mu_);
    phase_ = phase;
    finished_ = 0;
    ++generation_;
    cv_.notify_all();
  }
  void WaitFinished() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return finished_ == workers_; });
  }
  void Stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    cv_.notify_all();
  }

  /// Worker side: waits for the phase after `*generation`; false on stop.
  bool Next(int* generation, Phase* phase) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return stop_ || generation_ != *generation; });
    if (stop_) return false;
    *generation = generation_;
    *phase = phase_;
    return true;
  }
  void Finished() {
    std::lock_guard<std::mutex> lock(mu_);
    ++finished_;
    cv_.notify_all();
  }
 private:
  const int workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  Phase phase_;
  int generation_ = 0;
  int finished_ = 0;
  bool stop_ = false;
};

/// Joins the load threads on every exit path.
class Workers {
 public:
  explicit Workers(PhaseGate* gate) : gate_(gate) {}
  ~Workers() {
    gate_->Stop();
    for (std::thread& t : threads_) t.join();
  }
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;
  void Spawn(std::function<void()> fn) { threads_.emplace_back(std::move(fn)); }

 private:
  PhaseGate* gate_;
  std::vector<std::thread> threads_;
};

// --- Registry counters over the timed window -------------------------------

/// Sums counter and histogram-sum differences over the timed epochs only,
/// so quiesce-point work (checks, checkpoints, probes) is left out.
class RegistryDelta {
 public:
  void Add(const MetricsSnapshot& before, const MetricsSnapshot& after) {
    for (const auto& [key, value] : after.counters) {
      const auto it = before.counters.find(key);
      const std::uint64_t was = it == before.counters.end() ? 0 : it->second;
      counters_[key] += static_cast<double>(value - was);
    }
    for (const auto& [key, h] : after.histograms) {
      const auto it = before.histograms.find(key);
      const double was = it == before.histograms.end() ? 0.0 : it->second.sum;
      sums_[key] += h.sum - was;
    }
  }
  double Count(const std::string& key) const {
    const auto it = counters_.find(key);
    return it == counters_.end() ? 0.0 : it->second;
  }
  double Sum(const std::string& key) const {
    const auto it = sums_.find(key);
    return it == sums_.end() ? 0.0 : it->second;
  }
  /// Counter values of every key of the form prefix<i>suffix.
  std::vector<double> CountsLike(const std::string& prefix,
                                 const std::string& suffix) const {
    std::vector<double> out;
    for (const auto& [k, v] : counters_) {
      if (Matches(k, prefix, suffix)) out.push_back(v);
    }
    return out;
  }
  double SumsLike(const std::string& prefix, const std::string& suffix) const {
    double total = 0.0;
    for (const auto& [k, v] : sums_) {
      if (Matches(k, prefix, suffix)) total += v;
    }
    return total;
  }

 private:
  static bool Matches(const std::string& k, const std::string& prefix,
                      const std::string& suffix) {
    return k.size() > prefix.size() + suffix.size() &&
           k.compare(0, prefix.size(), prefix) == 0 &&
           k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0;
  }
  std::map<std::string, double> counters_;
  std::map<std::string, double> sums_;
};

MetricsSnapshot Snap() { return hermes::MetricsRegistry::Global().Snapshot(); }

/// Progress line on stderr, stamped with seconds since start.
void Log(const std::string& what) {
  std::fprintf(stderr, "[perfbench %8.3fs] %s\n", NsToS(NowNs()), what.c_str());
}

// --- What a workload run produces --------------------------------------------

struct RunData {
  std::vector<OpLog> records;      // per load thread
  std::vector<PairSet> created;    // per load thread: edges it inserted
  std::vector<double> epoch_s;     // timed window: each epoch's length
  std::vector<std::int64_t> epoch_start_ns;
  std::int64_t epoch_nominal_ns = 0;
  RegistryDelta window;            // registry over the timed epochs

  Sample setup_s, load_s, metis_s;
  Sample repartition_s, checkpoint_s, recover_s;
  // Write latencies (µs), one sample per slice: write_mix's window slices,
  // or the durable tail's batches.
  std::vector<Sample> write_slices;
  RegistryDelta write_phase;       // registry over the phase with the writes
  std::uint64_t write_ops = 0;
  RegistryDelta checkpoint_phase, recover_phase;
  std::uint64_t checkpoints = 0, recovers = 0;
  double snapshot_bytes_per_user_byte = 0.0;

  RegistryDelta repartition_phase;  // registry around each repartition
  std::vector<MigrationStats> migrations;
  std::vector<std::uint64_t> logical_moves;
  Sample logical_s;
  double edge_cut_pct = 0.0;
  double store_bytes = 0.0;
  double peak_rss_mb = 0.0;

  // Probes (traced run only).
  std::vector<double> ping_us;
  double neighbors_ns_per_edge = 0.0;
  ReadProbe read_probe;

  std::uint64_t attempted = 0;  // ops in the window and the durable tail
  std::uint64_t failed = 0;
};

/// Closed loops: the latency slice of a window op — each epoch splits into
/// kSlicesPerEpoch equal parts by the op's start time.
std::size_t SliceOf(const RunData& data, const OpRecord& r) {
  const std::int64_t into = r.start_ns - data.epoch_start_ns[r.epoch];
  const std::int64_t part =
      std::clamp<std::int64_t>(into * kSlicesPerEpoch / data.epoch_nominal_ns,
                               0, kSlicesPerEpoch - 1);
  return static_cast<std::size_t>(r.epoch) * kSlicesPerEpoch +
         static_cast<std::size_t>(part);
}

std::string DurableDir(const Config& config, const std::string& name) {
  return config.workdir + "/" + config.workload + "-" + name;
}

HermesCluster::Options ClusterOptions(const std::string& durability_dir) {
  HermesCluster::Options options;
  options.durability_dir = durability_dir;
  return options;
}

/// Generation, Metis, cluster build and load, repeated kSetupRepeats
/// times; the last cluster is the one the workload runs on.
std::unique_ptr<HermesCluster> SetUp(const Config& config, bool durable,
                                     Input* input, RunData* data) {
  std::unique_ptr<HermesCluster> cluster;
  for (int i = 0; i < kSetupRepeats; ++i) {
    cluster.reset();
    const std::string dir = durable ? DurableDir(config, "cluster") : "";
    if (durable) fs::remove_all(dir);
    const std::int64_t t0 = NowNs();
    *input = MakeInput();
    const std::int64_t t1 = NowNs();
    cluster = std::make_unique<HermesCluster>(input->graph, input->initial,
                                              ClusterOptions(dir));
    const std::int64_t t2 = NowNs();
    data->setup_s.Add(NsToS(t2 - t0));
    data->load_s.Add(NsToS(t2 - t1));
    data->metis_s.Add(input->metis_s);
  }
  Log("set up " + std::to_string(kSetupRepeats) + " times: " +
      std::to_string(input->graph.NumVertices()) + " vertices, " +
      std::to_string(input->graph.NumEdges()) + " edges");
  return cluster;
}

double ExpectedWeight(const Input& input, const Session& session) {
  double initial = 0.0;
  for (VertexId v = 0; v < input.graph.NumVertices(); ++v) {
    initial += input.graph.VertexWeight(v);
  }
  return initial + static_cast<double>(session.ok_reads.load()) +
         static_cast<double>(session.ok_vertices.load());
}

/// Validate() on a sample of vertices; a new sample at every call.
bool SampledValidate(const HermesCluster& cluster) {
  static std::atomic<std::uint64_t> calls{0};
  return cluster.Validate(kValidateSample, calls.fetch_add(1) + 1);
}

/// Validate() plus the weight-sum check, on a quiesced cluster.
void QuiesceChecks(const HermesCluster& cluster, const Input& input,
                   const Session& session, const std::string& where,
                   CheckReport* checks) {
  Log(where + ": quiesce checks");
  checks->Expect(SampledValidate(cluster),
                 where + ": Validate() returned false");
  CheckWeightSum(cluster, ExpectedWeight(input, session), where, checks);
}

/// One RunLightweightRepartition, timed into `seconds` when given;
/// checks imbalance <= beta.
void Repartition(HermesCluster* cluster, SpanBuffer* spans, Sample* seconds,
                 RunData* data, CheckReport* checks) {
  Log("repartition");
  hermes::Counter* moves =
      hermes::MetricsRegistry::Global().GetCounter("repartitioner.logical_moves");
  const std::uint64_t moves_before = moves->Value();
  const MetricsSnapshot before = Snap();
  const std::int64_t t0 = NowNs();
  Result<MigrationStats> stats = [&] {
    ScopedSpan span(spans, "cluster.RunLightweightRepartition");
    return cluster->RunLightweightRepartition();
  }();
  const std::int64_t t1 = NowNs();
  if (!stats.ok()) {
    checks->Fail("RunLightweightRepartition: " + stats.status().ToString());
    return;
  }
  Log("repartition took " + std::to_string(NsToS(t1 - t0)) + " s, moved " +
      std::to_string(stats->vertices_moved) + " vertices");
  if (seconds != nullptr) {
    seconds->Add(NsToS(t1 - t0));
    data->repartition_phase.Add(before, Snap());
    data->migrations.push_back(*stats);
    data->logical_moves.push_back(moves->Value() - moves_before);
  }
  const double beta = cluster->options().repartitioner.beta;
  checks->Expect(stats->imbalance_after <= beta,
                 "imbalance " + std::to_string(stats->imbalance_after) +
                     " > beta after a repartition");
}

void TimedCheckpoint(HermesCluster* cluster, SpanBuffer* spans, RunData* data,
                     CheckReport* checks) {
  const MetricsSnapshot before = Snap();
  const std::int64_t t0 = NowNs();
  Status status;
  {
    ScopedSpan span(spans, "cluster.Checkpoint");
    status = cluster->Checkpoint();
  }
  const std::int64_t t1 = NowNs();
  data->checkpoint_phase.Add(before, Snap());
  ++data->checkpoints;
  if (!status.ok()) {
    checks->Fail("Checkpoint: " + status.ToString());
    return;
  }
  data->checkpoint_s.Add(NsToS(t1 - t0));
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

/// Recover() kRecoverRepeats times (timed); returns the last cluster.
std::unique_ptr<HermesCluster> TimedRecover(const std::string& dir,
                                            SpanBuffer* spans, RunData* data,
                                            CheckReport* checks) {
  std::unique_ptr<HermesCluster> recovered;
  for (int i = 0; i < kRecoverRepeats; ++i) {
    recovered.reset();
    const MetricsSnapshot before = Snap();
    const std::int64_t t0 = NowNs();
    Result<std::unique_ptr<HermesCluster>> result = [&] {
      ScopedSpan span(spans, "cluster.Recover");
      return HermesCluster::Recover(kAlpha, ClusterOptions(dir));
    }();
    const std::int64_t t1 = NowNs();
    data->recover_phase.Add(before, Snap());
    ++data->recovers;
    if (!result.ok()) {
      checks->Fail("Recover: " + result.status().ToString());
      return nullptr;
    }
    data->recover_s.Add(NsToS(t1 - t0));
    recovered = std::move(*result);
  }
  return recovered;
}

/// Adds every acknowledged write of `records` to the mirror (vertex ids
/// are handed out in creation order, so vertices go in by id).
void AddWrites(const std::vector<OpLog>& records, Mirror* mirror) {
  for (const OpLog& thread : records) {
    for (const OpRecord& r : thread) {
      if (!r.ok) continue;
      if (r.op.kind == OpKind::kInsertVertex) mirror->AddVertex();
      if (r.op.kind == OpKind::kInsertEdge) {
        mirror->AddEdge(r.op.a, r.op.b, r.start_ns, r.end_ns);
      }
    }
  }
}

/// Metrics the workload's own loop does not produce come from this tail
/// on a durable copy of the final state: single-client new users and new
/// friendships in kTailBatches batches, a Checkpoint after each, then
/// Recover and a check that exactly the acknowledged writes survived.
void DurableTail(const Config& config, const HermesCluster& source,
                 const Input& input, RunData* data, CheckReport* checks) {
  Log("durable tail: load");
  const std::string dir = DurableDir(config, "tail");
  fs::remove_all(dir);
  Input base;
  base.graph = source.graph();
  base.initial = input.initial;
  Mirror mirror(base.graph);
  Session session(false);
  std::vector<OpLog> records;
  records.emplace_back(kTailWrites);
  PairSet created(kTailWrites);
  {
    HermesCluster cluster(source.graph(), source.assignment(),
                          ClusterOptions(dir));
    const StartSampler sampler(base);
    OpGenerator gen(base, sampler, config.seed, 0, 1, 1.0, &created);
    Log("durable tail: writes");
    for (int batch = 0; batch < kTailBatches; ++batch) {
      const MetricsSnapshot before = Snap();
      Sample& write_us = data->write_slices.emplace_back();
      for (int i = 0; i < kTailWrites / kTailBatches; ++i) {
        OpRecord* rec = records[0].Append();
        ExecuteOp(&cluster, &session, gen.Next(kInitialHot), nullptr, rec);
        write_us.Add(NsToUs(rec->end_ns - rec->start_ns));
        ++data->write_ops;
        data->failed += rec->ok ? 0 : 1;
      }
      data->write_phase.Add(before, Snap());
      TimedCheckpoint(&cluster, nullptr, data, checks);
    }
    data->snapshot_bytes_per_user_byte =
        static_cast<double>(DirBytes(dir)) /
        (8.0 * static_cast<double>(cluster.graph().NumVertices()) +
         16.0 * static_cast<double>(cluster.graph().NumEdges()));
    checks->Expect(SampledValidate(cluster),
                   "durable tail: Validate() returned false");
  }
  data->attempted += records[0].size();
  AddWrites(records, &mirror);
  Log("durable tail: recover");
  std::unique_ptr<HermesCluster> recovered =
      TimedRecover(dir, nullptr, data, checks);
  if (recovered != nullptr) {
    Log("durable tail: check recovered state");
    CheckRecovered(*recovered, mirror, checks);
    CheckWeightSum(*recovered, ExpectedWeight(base, session),
                   "durable tail: recovered cluster", checks);
    checks->Expect(SampledValidate(*recovered),
                   "durable tail: recovered Validate() returned false");
  }
  fs::remove_all(dir);
}

/// The traced run's single-layer probes on the quiesced cluster.
void RunProbes(HermesCluster* cluster, Session* session,
               const std::vector<OpLog>& records, RunData* data) {
  SpanBuffer* spans = session->spans(kDriverThread, true);
  data->ping_us = PingProbe(kPingCalls, spans);
  std::vector<VertexId> starts;
  for (const OpLog& thread : records) {
    for (const OpRecord& r : thread) {
      if (r.op.kind == OpKind::kRead1 && starts.size() < kProbeReads) {
        starts.push_back(r.op.a);
      }
    }
  }
  data->neighbors_ns_per_edge = NeighborsProbe(cluster, starts, spans);
  data->read_probe = OneHopReadProbe(cluster, starts, spans);
  session->ok_reads.fetch_add(data->read_probe.ok_reads);
}

/// The per-client op logs and pair sets of a run of `seconds` (plus the
/// warm-up), allocated before set-up. Returns their size in MB, which
/// ClosedLoop leaves out of peak_rss_mb.
double AllocateLogs(double seconds, double write_share, RunData* data) {
  const auto capacity = static_cast<std::size_t>(
      std::ceil(kMaxOpsPerClientPerS * (seconds + kWarmupS)));
  double bytes = 0.0;
  for (int c = 0; c < kClosedClients; ++c) {
    bytes += static_cast<double>(data->records.emplace_back(capacity).bytes());
    bytes += static_cast<double>(
        data->created.emplace_back(write_share > 0.0 ? capacity : 0).bytes());
  }
  return bytes / (1024.0 * 1024.0);
}

/// Closed loop: kClosedClients clients, each issuing its next op when the
/// previous one returns, for kEpochs equal epochs after a warm-up. The
/// cluster is quiesced between epochs and `boundary(epoch)` runs there,
/// outside the timed window. Traced runs trace the odd epochs only, so
/// the even ones give the untraced rate for the overhead figure.
void ClosedLoop(const Config& config, HermesCluster* cluster,
                Session* session, const Input& input, double write_share,
                double logs_mb, const std::function<void(int)>& boundary,
                RunData* data, CheckReport* checks) {
  const StartSampler sampler(input);
  PhaseGate gate(kClosedClients);
  {
    Workers workers(&gate);
    for (int c = 0; c < kClosedClients; ++c) {
      workers.Spawn([&, c] {
        OpGenerator gen(input, sampler, config.seed,
                        static_cast<std::uint32_t>(c), kClosedClients,
                        write_share, &data->created[c]);
        OpLog& out = data->records[c];
        int generation = 0;
        Phase phase;
        while (gate.Next(&generation, &phase)) {
          SpanBuffer* spans = session->spans(c, phase.traced);
          while (NowNs() < phase.end_ns) {
            // A record first: a write's pair goes into `created` only when
            // the log has room for it, so `created` never fills first.
            OpRecord* rec = out.Append();
            if (rec == nullptr) break;
            rec->epoch = static_cast<std::int8_t>(phase.epoch);
            ExecuteOp(cluster, session, gen.Next(kInitialHot), spans, rec);
          }
          gate.Finished();
        }
      });
    }
    const auto run_phase = [&](int epoch, bool traced, double seconds) {
      Phase phase;
      phase.epoch = epoch;
      phase.traced = traced;
      const std::int64_t start_ns = NowNs();
      if (epoch >= 0) data->epoch_start_ns.push_back(start_ns);
      phase.end_ns = start_ns + static_cast<std::int64_t>(seconds * 1e9);
      gate.Begin(phase);
      gate.WaitFinished();
      return NsToS(NowNs() - start_ns);
    };
    const auto recorded = [&] {
      std::size_t n = 0;
      for (const auto& r : data->records) n += r.size();
      return n;
    };
    data->epoch_nominal_ns =
        static_cast<std::int64_t>(config.seconds / kEpochs * 1e9);
    run_phase(-1, false, kWarmupS);
    for (int e = 0; e < kEpochs; ++e) {
      const bool traced = config.trace && e % 2 == 1;
      const MetricsSnapshot before = Snap();
      const std::size_t ops_before = recorded();
      const double active = run_phase(e, traced, config.seconds / kEpochs);
      data->window.Add(before, Snap());
      Log("epoch " + std::to_string(e) + ": " +
          std::to_string(static_cast<double>(recorded() - ops_before) /
                         active) +
          " ops/s");
      data->epoch_s.push_back(active);
      boundary(e);
    }
  }
  data->peak_rss_mb = PeakRssMb() - logs_mb;
  for (const OpLog& log : data->records) {
    checks->Expect(!log.full(),
                   "a client's op log filled up: the run exceeded "
                   "kMaxOpsPerClientPerS");
  }
}

// --- The workloads -------------------------------------------------------------

/// repartition_s on the closed-loop workloads, whose own loop never
/// repartitions: RunLightweightRepartition on fresh, unloaded clusters
/// built from the input (the §5.3.1 skew, as Fig. 8 measures it), so every
/// run repartitions the same problem. Median of kFreshRepartitions.
void FreshRepartitions(const Config& config, const Input& input,
                       Session* session, RunData* data, CheckReport* checks) {
  SpanBuffer* spans = session->spans(kDriverThread, config.trace);
  double weight = 0.0;
  for (VertexId v = 0; v < input.graph.NumVertices(); ++v) {
    weight += input.graph.VertexWeight(v);
  }
  for (int i = 0; i < kFreshRepartitions; ++i) {
    HermesCluster cluster(input.graph, input.initial, ClusterOptions(""));
    if (config.trace && i == 0) {
      data->logical_s.Add(RepartitionerProbe(cluster, spans).seconds);
    }
    Repartition(&cluster, spans, &data->repartition_s, data, checks);
    CheckWeightSum(cluster, weight, "fresh repartition", checks);
    if (i == 0) {
      checks->Expect(SampledValidate(cluster),
                     "fresh repartition: Validate() returned false");
    }
  }
}

/// Edge cut and store size of the quiesced cluster at the end of the run.
void EndState(const HermesCluster& cluster, RunData* data) {
  data->edge_cut_pct =
      100.0 * hermes::EdgeCutFraction(cluster.graph(), cluster.assignment());
  data->store_bytes = static_cast<double>(cluster.TotalStoreBytes());
}

/// The closed loops end with one repartition of the live cluster, after
/// the window, on the weights the run's reads left behind; the edge cut
/// is taken after it.
void MaintenanceRepartition(HermesCluster* cluster, const Input& input,
                            const Session& session, RunData* data,
                            CheckReport* checks) {
  Repartition(cluster, nullptr, nullptr, data, checks);
  QuiesceChecks(*cluster, input, session, "after the repartition", checks);
  EndState(*cluster, data);
}

void SkewedReads(const Config& config, Session* session, RunData* data,
                 CheckReport* checks, Input* input,
                 std::unique_ptr<Mirror>* mirror) {
  const double logs_mb = AllocateLogs(config.seconds, 0.0, data);
  std::unique_ptr<HermesCluster> cluster =
      SetUp(config, /*durable=*/false, input, data);
  ClosedLoop(config, cluster.get(), session, *input, 0.0, logs_mb,
             [&](int e) {
               QuiesceChecks(*cluster, *input, *session,
                             "epoch " + std::to_string(e), checks);
             },
             data, checks);
  if (config.trace) RunProbes(cluster.get(), session, data->records, data);
  QuiesceChecks(*cluster, *input, *session, "end of run", checks);
  MaintenanceRepartition(cluster.get(), *input, *session, data, checks);
  *mirror = std::make_unique<Mirror>(input->graph);
  DurableTail(config, *cluster, *input, data, checks);
  cluster.reset();
  FreshRepartitions(config, *input, session, data, checks);
}

void WriteMix(const Config& config, Session* session, RunData* data,
              CheckReport* checks, Input* input,
              std::unique_ptr<Mirror>* mirror) {
  const double logs_mb = AllocateLogs(config.seconds, kWriteShare, data);
  std::unique_ptr<HermesCluster> cluster =
      SetUp(config, /*durable=*/true, input, data);
  SpanBuffer* spans = session->spans(kDriverThread, config.trace);
  ClosedLoop(config, cluster.get(), session, *input, kWriteShare, logs_mb,
             [&](int e) {
               QuiesceChecks(*cluster, *input, *session,
                             "epoch " + std::to_string(e), checks);
               TimedCheckpoint(cluster.get(), spans, data, checks);
             },
             data, checks);
  data->write_phase = data->window;
  data->write_slices.resize(kEpochs * kSlicesPerEpoch);
  for (const OpLog& thread : data->records) {
    for (const OpRecord& r : thread) {
      if (r.epoch >= 0 && !IsRead(r.op.kind)) {
        data->write_slices[SliceOf(*data, r)].Add(
            NsToUs(r.end_ns - r.start_ns));
        ++data->write_ops;
      }
    }
  }
  if (config.trace) RunProbes(cluster.get(), session, data->records, data);
  QuiesceChecks(*cluster, *input, *session, "end of run", checks);
  MaintenanceRepartition(cluster.get(), *input, *session, data, checks);
  TimedCheckpoint(cluster.get(), spans, data, checks);
  const std::string dir = DurableDir(config, "cluster");
  data->snapshot_bytes_per_user_byte =
      static_cast<double>(DirBytes(dir)) /
      (8.0 * static_cast<double>(cluster->graph().NumVertices()) +
       16.0 * static_cast<double>(cluster->graph().NumEdges()));
  cluster.reset();

  *mirror = std::make_unique<Mirror>(input->graph);
  AddWrites(data->records, mirror->get());
  std::unique_ptr<HermesCluster> recovered =
      TimedRecover(dir, spans, data, checks);
  if (recovered != nullptr) {
    Log("recovered cluster: check against the acknowledged writes");
    CheckRecovered(*recovered, **mirror, checks);
    QuiesceChecks(*recovered, *input, *session, "recovered cluster", checks);
  }
  recovered.reset();
  fs::remove_all(dir);
  FreshRepartitions(config, *input, session, data, checks);
}

// --- Metrics ------------------------------------------------------------------

void Put(MetricMap* m, const std::string& name, double value,
         const std::string& unit, std::uint64_t samples = 0) {
  (*m)[name] = Metric{value, unit, samples};
}

double PerOp(double total, double ops) { return ops > 0.0 ? total / ops : 0.0; }

/// The median of every slice, then the median across slices; and the
/// total sample count.
std::pair<double, std::uint64_t> SliceMedian(std::vector<Sample>* slices) {
  Sample per_slice;
  std::uint64_t n = 0;
  for (Sample& s : *slices) {
    if (s.size() == 0) continue;
    per_slice.Add(s.Median());
    n += s.size();
  }
  return {per_slice.Median(), n};
}

/// A percentile of every sample of every slice together; and the count.
std::pair<double, std::uint64_t> PooledPercentile(
    const std::vector<Sample>& slices, double q) {
  Sample all;
  for (const Sample& s : slices) {
    for (double v : s.values()) all.Add(v);
  }
  return {all.Percentile(q), all.size()};
}

/// End-to-end metrics, from the sorted per-op samples. Rates and p50s are
/// taken per epoch or per time slice and reported as the median across
/// them, so one disturbed slice does not move the figure; p99s are exact
/// over the whole window's samples, so a stall in a few slices does.
void EndToEnd(RunData* data, const std::vector<const OpRecord*>& window,
              MetricMap* m) {
  const std::size_t epochs = data->epoch_s.size();
  const std::size_t slices = epochs * kSlicesPerEpoch;
  std::vector<Sample> read1(slices), read2(slices);
  std::vector<double> ops(epochs, 0.0), vertices(epochs, 0.0);
  for (const OpRecord* r : window) {
    ops[r->epoch] += 1.0;
    if (!r->ok || !IsRead(r->op.kind)) continue;
    const double us = NsToUs(r->end_ns - r->start_ns);
    (r->op.kind == OpKind::kRead1 ? read1 : read2)[SliceOf(*data, *r)].Add(us);
    vertices[r->epoch] += static_cast<double>(r->vertices_processed);
  }
  Sample ops_rate, vertex_rate;
  for (std::size_t e = 0; e < epochs; ++e) {
    ops_rate.Add(ops[e] / data->epoch_s[e]);
    vertex_rate.Add(vertices[e] / data->epoch_s[e]);
  }
  const auto put_latency = [&](const std::string& name,
                               std::vector<Sample>* slices) {
    const auto [p50, n] = SliceMedian(slices);
    Put(m, name + "_p50_us", p50, "us", n);
    const auto [p99, n99] = PooledPercentile(*slices, 0.99);
    Put(m, name + "_p99_us", p99, "us", n99);
  };
  Put(m, "setup_s", data->setup_s.Median(), "s", data->setup_s.size());
  Put(m, "ops_per_s", ops_rate.Median(), "1/s", window.size());
  Put(m, "vertices_per_s", vertex_rate.Median(), "1/s");
  put_latency("read_1hop", &read1);
  put_latency("read_2hop", &read2);
  put_latency("write", &data->write_slices);
  Put(m, "repartition_s", data->repartition_s.Median(), "s",
      data->repartition_s.size());
  Put(m, "edge_cut_pct", data->edge_cut_pct, "%");
  Put(m, "checkpoint_s", data->checkpoint_s.Median(), "s",
      data->checkpoint_s.size());
  Put(m, "recover_s", data->recover_s.Median(), "s", data->recover_s.size());
  Put(m, "peak_rss_mb", data->peak_rss_mb, "MB");
}

void PerLayer(RunData* data, Session* session,
              const std::vector<const OpRecord*>& window, MetricMap* m) {
  const RegistryDelta& w = data->window;
  const double ops = static_cast<double>(window.size());
  double reads = 0.0, remote_hops = 0.0, traced_ops = 0.0;
  for (const OpRecord* r : window) {
    if (r->traced) traced_ops += 1.0;
    if (!r->ok || !IsRead(r->op.kind)) continue;
    reads += 1.0;
    remote_hops += static_cast<double>(r->remote_hops);
  }
  // Tracing overhead: the traced (odd) epochs' rate against the untraced
  // (even) epochs' rate of the same run.
  double overhead_pct = 0.0;
  double traced_s = 0.0, untraced_s = 0.0;
  for (std::size_t e = 0; e < data->epoch_s.size(); ++e) {
    (e % 2 == 1 ? traced_s : untraced_s) += data->epoch_s[e];
  }
  if (untraced_s > 0.0 && traced_s > 0.0 && ops > traced_ops) {
    const double rate_u = (ops - traced_ops) / untraced_s;
    const double rate_t = traced_ops / traced_s;
    overhead_pct = 100.0 * (rate_u - rate_t) / rate_u;
  }

  // cluster
  Sample ping;
  for (double us : data->ping_us) ping.Add(us);
  const double ping_p50 = ping.Median();
  const ReadProbe& rp = data->read_probe;
  Put(m, "cluster.bus_calls_per_read", rp.bus_calls_per_read, "1/read");
  Put(m, "cluster.read_self_us",
      rp.mean_read_us - rp.bus_calls_per_read * ping_p50 -
          data->neighbors_ns_per_edge * rp.mean_edges / 1e3,
      "us");
  Put(m, "cluster.remote_hops_per_read", PerOp(remote_hops, reads), "1/read");
  Put(m, "cluster.dir_wait_us_per_op", PerOp(w.Sum("lock.cluster.dir.wait_us"), ops),
      "us/op");
  Put(m, "cluster.topo_contention_per_op",
      PerOp(w.Count("lock.cluster.topo.contention"), ops), "1/op");
  double chunks = 0.0, moved = 0.0, bytes = 0.0, iterations = 0.0,
         aux_bytes = 0.0, imbalance = 0.0, logical_moves = 0.0;
  for (const MigrationStats& s : data->migrations) {
    chunks += static_cast<double>(s.chunks);
    moved += static_cast<double>(s.vertices_moved);
    bytes += static_cast<double>(s.bytes_copied);
    iterations += static_cast<double>(s.repartitioner_iterations);
    aux_bytes += static_cast<double>(s.aux_bytes_exchanged);
    imbalance += s.imbalance_after;
  }
  for (std::uint64_t x : data->logical_moves) logical_moves += static_cast<double>(x);
  const double reps = static_cast<double>(data->migrations.size());
  Put(m, "cluster.migration_chunks", PerOp(chunks, reps), "1/repartition");
  Put(m, "cluster.vertices_migrated", PerOp(moved, reps), "1/repartition");
  Put(m, "cluster.migration_bytes", PerOp(bytes, reps), "B/repartition");
  const RegistryDelta& rp_phase = data->repartition_phase;
  Put(m, "cluster.migration_copy_us",
      PerOp(rp_phase.Sum("cluster.migration.copy"), reps), "us/repartition");
  Put(m, "cluster.migration_remove_us",
      PerOp(rp_phase.Sum("cluster.migration.remove"), reps),
      "us/repartition");
  Put(m, "cluster.load_s", data->load_s.Median(), "s");

  // net
  Put(m, "net.ping_rtt_p50_us", ping_p50, "us", ping.size());
  Put(m, "net.ping_rtt_p99_us", ping.Percentile(0.99), "us", ping.size());
  Put(m, "net.msgs_per_op", PerOp(w.Count("msg.sent"), ops), "1/op");
  Put(m, "net.bytes_per_op", PerOp(w.Count("msg.bytes"), ops), "B/op");
  Put(m, "net.bus_wait_us_per_op", PerOp(w.Sum("lock.msg.bus.wait_us"), ops),
      "us/op");
  Put(m, "net.transport_wait_us_per_op",
      PerOp(w.Sum("lock.msg.transport.wait_us") +
                w.SumsLike("lock.msg.inbox.", ".wait_us"),
            ops),
      "us/op");
  Put(m, "net.retries", w.Count("msg.retries"), "count");
  Put(m, "net.timeouts", w.Count("msg.timeouts"), "count");
  Put(m, "net.stale_replies", w.Count("msg.stale_replies"), "count");

  // server
  Put(m, "server.requests_per_op", PerOp(w.Count("server.requests"), ops),
      "1/op");
  Put(m, "server.hold_us_per_op",
      PerOp(w.SumsLike("lock.server.p", ".hold_us"), ops), "us/op");
  const std::vector<double> acq = w.CountsLike("lock.server.p", ".acquisitions");
  double acq_sum = 0.0, acq_max = 0.0;
  for (double a : acq) {
    acq_sum += a;
    acq_max = std::max(acq_max, a);
  }
  Put(m, "server.hot_share",
      acq.empty() || acq_sum == 0.0
          ? 0.0
          : acq_max / (acq_sum / static_cast<double>(acq.size())),
      "ratio");

  // graphdb
  Put(m, "graphdb.neighbors_ns_per_edge", data->neighbors_ns_per_edge, "ns");
  Put(m, "graphdb.store_bytes", data->store_bytes, "B");

  // storage and txn: over the phase that produced write_p50_us
  const RegistryDelta& wp = data->write_phase;
  const double writes = static_cast<double>(data->write_ops);
  Put(m, "storage.wal_appends_per_write", PerOp(wp.Count("wal.appends"), writes),
      "1/write");
  Put(m, "storage.wal_bytes_per_write",
      PerOp(wp.Count("wal.append_bytes"), writes), "B/write");
  Put(m, "storage.wal_wait_us_per_write",
      PerOp(wp.Sum("lock.wal.mu.wait_us"), writes), "us/write");
  Put(m, "storage.store_wait_us_per_write",
      PerOp(wp.Sum("lock.durable_store.mu.wait_us"), writes), "us/write");
  const double cps = static_cast<double>(data->checkpoints);
  const double rcs = static_cast<double>(data->recovers);
  for (const char* what : {"misses", "evictions", "writebacks"}) {
    const std::string key = std::string("page_cache.") + what;
    Put(m, "storage.page_cache_" + std::string(what) + ".checkpoint",
        PerOp(data->checkpoint_phase.Count(key), cps), "1/checkpoint");
    Put(m, "storage.page_cache_" + std::string(what) + ".recover",
        PerOp(data->recover_phase.Count(key), rcs), "1/recover");
  }
  Put(m, "storage.snapshot_bytes_per_user_byte",
      data->snapshot_bytes_per_user_byte, "ratio");
  Put(m, "txn.locks_per_write",
      PerOp(wp.Count("lock_manager.acquired_shared") +
                wp.Count("lock_manager.acquired_exclusive"),
            writes),
      "1/write");
  Put(m, "txn.timeouts", wp.Count("lock_manager.timeouts"), "count");

  // partition
  Put(m, "partition.logical_s", data->logical_s.Median(), "s");
  Put(m, "partition.iterations", PerOp(iterations, reps), "1/repartition");
  Put(m, "partition.logical_moves", PerOp(logical_moves, reps),
      "1/repartition");
  Put(m, "partition.aux_bytes", PerOp(aux_bytes, reps), "B/repartition");
  Put(m, "partition.imbalance_after", PerOp(imbalance, reps), "ratio");
  Put(m, "partition.metis_s", data->metis_s.Median(), "s");

  // common
  Put(m, "common.registry_lock_per_op",
      PerOp(w.Count("lock.metrics_registry.mu.acquisitions"), ops), "1/op");
  Put(m, "common.trace_lock_per_op",
      PerOp(w.Count("lock.trace_log.mu.acquisitions"), ops), "1/op");

  // bench
  Put(m, "bench.tracing_overhead_pct", overhead_pct, "%");
  // The untraced epochs' rate of this run, which uses every CPU (the
  // end-to-end ops_per_s is measured on one; see main.cc).
  Put(m, "bench.all_cpus_ops_per_s", PerOp(ops - traced_ops, untraced_s),
      "1/s");
  Put(m, "bench.failed_op_ratio",
      PerOp(static_cast<double>(data->failed),
            static_cast<double>(data->attempted)),
      "ratio");
  double op_self_us = 0.0;
  if (Tracer* tracer = session->tracer()) {
    const auto totals = tracer->Totals();
    const auto it = totals.find("bench.op");
    if (it != totals.end() && it->second.count > 0) {
      op_self_us = NsToUs(it->second.self_ns) /
                   static_cast<double>(it->second.count);
    }
  }
  Put(m, "bench.op_self_us", op_self_us, "us");
}

}  // namespace

std::int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

Input MakeInput() {
  Input input;
  input.graph = hermes::GenerateDataset(hermes::TwitterProfile(kTwitterScale));
  const std::int64_t t1 = NowNs();
  hermes::MultilevelOptions metis;
  metis.seed = 42;
  input.initial =
      hermes::MultilevelPartitioner(metis).Partition(input.graph, kAlpha);
  input.metis_s = NsToS(NowNs() - t1);
  for (VertexId v = 0; v < input.graph.NumVertices(); ++v) {
    if (input.initial.PartitionOf(v) == kInitialHot) {
      input.graph.AddVertexWeight(
          v, (kSkewFactor - 1.0) * input.graph.VertexWeight(v));
    }
  }
  return input;
}

bool IsWorkload(const std::string& name) {
  return name == "skewed_reads" || name == "write_mix";
}

Outcome RunWorkload(const Config& config) {
  Outcome outcome;
  Session session(config.trace);
  RunData data;
  Input input;
  std::unique_ptr<Mirror> mirror;
  fs::create_directories(config.workdir);
  if (config.workload == "skewed_reads") {
    SkewedReads(config, &session, &data, &outcome.checks, &input, &mirror);
  } else {
    WriteMix(config, &session, &data, &outcome.checks, &input, &mirror);
  }

  std::vector<const OpRecord*> window;
  std::vector<const OpRecord*> reads;
  for (const OpLog& thread : data.records) {
    for (const OpRecord& r : thread) {
      if (IsRead(r.op.kind)) reads.push_back(&r);
      if (r.epoch < 0) continue;
      window.push_back(&r);
      data.failed += r.ok ? 0 : 1;
    }
  }
  data.attempted += window.size();
  Log("checking " + std::to_string(reads.size()) + " reads");
  CheckReads(mirror.get(), reads, config.degree_skew, &outcome.checks);

  if (config.trace) {
    PerLayer(&data, &session, window, &outcome.metrics);
    if (Tracer* tracer = session.tracer()) {
      const std::string path = config.workdir + "/spans-" + config.workload +
                               "-" + std::to_string(config.seed) + ".jsonl";
      if (!tracer->WriteJsonl(path)) {
        outcome.checks.Fail("cannot write the span file " + path);
      }
      for (const auto& [name, t] : tracer->Totals()) {
        std::printf("span %-34s n=%-8llu total %10.1f ms  self %10.1f ms\n",
                    name.c_str(), static_cast<unsigned long long>(t.count),
                    static_cast<double>(t.total_ns) / 1e6,
                    static_cast<double>(t.self_ns) / 1e6);
      }
      std::printf("spans written to %s\n", path.c_str());
    }
  } else {
    EndToEnd(&data, window, &outcome.metrics);
  }
  outcome.attempted = data.attempted;
  outcome.failed = data.failed;
  outcome.first_error = session.first_error();
  return outcome;
}

}  // namespace perfbench
