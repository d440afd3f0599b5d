#include "common/metrics.h"

namespace hermes {

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MutexLock lock(&mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->Value();
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms[name] = hist->Summary();
  }
#ifdef HERMES_LOCK_PROFILING
  // Merge the lock profiler's rows (common/lock_order.h) so hold/wait
  // times and contention reach every consumer of the registry snapshot —
  // HermesCluster::MetricsSnapshot() and the BENCH_*.json reports — under
  // stable lock.<name>.* keys. ProfileSnapshot's internal raw mutex is a
  // leaf below mu_ (it never takes an annotated Mutex), so calling it
  // under the registry lock cannot invert.
  for (const lock_order::LockProfileRow& row : lock_order::ProfileSnapshot()) {
    const std::string prefix = "lock." + row.name;
    snap.counters[prefix + ".acquisitions"] = row.acquisitions;
    snap.counters[prefix + ".contention"] = row.contention;
    snap.histograms[prefix + ".hold_us"] = row.hold;
    if (row.wait.count > 0) snap.histograms[prefix + ".wait_us"] = row.wait;
  }
#endif
  return snap;
}

void MetricsRegistry::ResetAll() {
  MutexLock lock(&mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
#ifdef HERMES_LOCK_PROFILING
  lock_order::ProfileReset();
#endif
}

TraceLog& TraceLog::Global() {
  static TraceLog* log = new TraceLog();
  return *log;
}

void TraceLog::Record(const char* name, std::uint64_t start_us,
                      std::uint64_t duration_us) {
  MutexLock lock(&mu_);
  if (ring_.size() < kCapacity) {
    ring_.push_back(TraceEvent{name, start_us, duration_us});
  } else {
    ring_[next_] = TraceEvent{name, start_us, duration_us};
    next_ = (next_ + 1) % kCapacity;
  }
  ++recorded_;
}

std::vector<TraceEvent> TraceLog::Events() const {
  MutexLock lock(&mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // `next_` is the oldest slot once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t TraceLog::total_recorded() const {
  MutexLock lock(&mu_);
  return recorded_;
}

std::uint64_t TraceLog::dropped() const {
  MutexLock lock(&mu_);
  return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
}

void TraceLog::Clear() {
  MutexLock lock(&mu_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
}

}  // namespace hermes
