#ifndef HERMES_COMMON_HISTOGRAM_H_
#define HERMES_COMMON_HISTOGRAM_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace hermes {

/// Steady-clock microseconds since the first call in this process
/// (monotonic). The one clock every latency histogram is fed from; it
/// lives here so that both the lock profiler (common/lock_order.h, which
/// cannot include metrics.h) and the metrics layer can reach it.
std::uint64_t SteadyNowMicros();

/// One histogram, summarized. Quantiles use the nearest-rank rule and are
/// clamped to [min, max]; all fields are 0 for an empty histogram.
struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

/// Lock-free log-linear histogram of non-negative integer samples
/// (microseconds or counts), after HdrHistogram (hdrhistogram.org).
///
/// Values below kSubBuckets (64) get one exact bucket each. Above that,
/// every power-of-two range [2^e, 2^(e+1)) is split into 32 equal
/// buckets, so a bucket's width is at most 1/32 of its lower bound. A
/// quantile is reported as its bucket's midpoint, within 1/64 of the
/// exact sample (the tests hold it to 3.2%, the bucket width). The full
/// uint64 range is covered: no sample is clamped.
///
/// Record() is four relaxed atomic operations on the common path (one
/// bucket add, one sum add, a min and a max load) and takes no lock, so
/// it is safe on any hot path and from inside the lock profiler. The
/// count is the sum of the buckets, read at Summary() time. A Summary()
/// or Reset() racing with Record() may see a sample half-applied; the
/// numbers are exact once recording has stopped.
///
/// Aligned to a cache line so that no two histograms, and no histogram
/// and a neighbouring counter, share a line.
class alignas(64) Histogram {
 public:
  void Record(std::uint64_t value) {
    buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (value < cur &&
           !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (value > cur &&
           !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }

  HistogramSummary Summary() const;
  void Reset();

  static constexpr int kSubBucketBits = 6;
  static constexpr std::uint64_t kSubBuckets = std::uint64_t{1}
                                               << kSubBucketBits;
  /// 64 exact buckets, then 32 per power of two for exponents 6..63.
  static constexpr std::size_t kBuckets =
      kSubBuckets + (64 - kSubBucketBits) * (kSubBuckets / 2);

 private:
  static std::size_t BucketFor(std::uint64_t value) {
    // shift = 0 for value < 64 (exact); otherwise the value's top
    // kSubBucketBits bits select one of 32 buckets in its octave.
    const int width = static_cast<int>(std::bit_width(value));
    const int shift = width > kSubBucketBits ? width - kSubBucketBits : 0;
    return (static_cast<std::size_t>(shift) << (kSubBucketBits - 1)) +
           static_cast<std::size_t>(value >> shift);
  }

  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

}  // namespace hermes

#endif  // HERMES_COMMON_HISTOGRAM_H_
