#include "common/histogram.h"

#include <algorithm>
#include <chrono>

namespace hermes {

std::uint64_t SteadyNowMicros() {
  static const auto origin = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - origin)
          .count());
}

namespace {

// The value reported for bucket `i`: the midpoint of the values it holds
// (the value itself below kSubBuckets), so a quantile is off by at most
// half a bucket width, 1/64 of the value.
double BucketValue(std::size_t i) {
  if (i < Histogram::kSubBuckets) return static_cast<double>(i);
  // Above that, bucket i holds the values v with v >> shift == sub.
  constexpr std::size_t kHalf = Histogram::kSubBuckets / 2;
  const int shift = static_cast<int>(i / kHalf) - 1;
  const std::uint64_t sub = kHalf + i % kHalf;
  const std::uint64_t width = std::uint64_t{1} << shift;
  return static_cast<double>(sub * width + width / 2);
}

}  // namespace

HistogramSummary Histogram::Summary() const {
  std::uint64_t counts[kBuckets];
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  HistogramSummary out;
  if (total == 0) return out;
  const std::uint64_t max = max_.load(std::memory_order_relaxed);
  // min() guards a snapshot racing the first Record (min not yet lowered).
  const std::uint64_t min = std::min(min_.load(std::memory_order_relaxed), max);
  out.count = total;
  out.sum = static_cast<double>(sum_.load(std::memory_order_relaxed));
  out.mean = out.sum / static_cast<double>(total);
  out.min = static_cast<double>(min);
  out.max = static_cast<double>(max);
  // Nearest rank: the quantile-q sample is the ceil(q * count)-th
  // smallest, with q in thousandths so the rank is exact. The ranks
  // ascend, so one pass over the buckets serves all four.
  const std::uint64_t per_mille[] = {500, 900, 990, 999};
  double* const outs[] = {&out.p50, &out.p90, &out.p99, &out.p999};
  std::size_t b = 0;
  std::uint64_t cum = counts[0];
  for (int k = 0; k < 4; ++k) {
    const std::uint64_t rank = (total * per_mille[k] + 999) / 1000;
    while (cum < rank && b + 1 < kBuckets) cum += counts[++b];
    *outs[k] = std::clamp(BucketValue(b), out.min, out.max);
  }
  return out;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(~std::uint64_t{0}, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

}  // namespace hermes
