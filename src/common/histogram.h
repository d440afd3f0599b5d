#ifndef HERMES_COMMON_HISTOGRAM_H_
#define HERMES_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hermes {

/// Streaming summary of a numeric sample: count, mean, min/max, and
/// approximate quantiles via a fixed exponential bucketing (HdrHistogram
/// style but simpler). Used for latency and queue-length reporting.
class Histogram {
 public:
  Histogram();

  void Add(double value);
  void Merge(const Histogram& other);
  void Reset();

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double Mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  /// Approximate quantile (q in [0,1]); exact for min/max, bucketed
  /// otherwise. Returns 0 for an empty histogram.
  double Quantile(double q) const;

 private:
  static constexpr std::size_t kNumBuckets = 128;
  // Bucket i covers the quarter-decade [10^(i/4 - 8), 10^((i+1)/4 - 8));
  // computed via BucketFor. Values <= 0 go to bucket 0.
  static std::size_t BucketFor(double value);
  static double BucketUpper(std::size_t bucket);

  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<std::uint64_t> buckets_;
};

}  // namespace hermes

#endif  // HERMES_COMMON_HISTOGRAM_H_
