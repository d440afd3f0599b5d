// The workloads and the metrics they report (README.md lists them
// with the reason for each).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench.h"
#include "checks.h"

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Added to every 1-hop read expectation; the self-test sets it to
  /// prove that a wrong expectation fails the output check.
  int degree_skew = 0;
  /// Scratch directory for durable stores and the span file.
  std::string workdir;
};

struct Outcome {
  MetricMap metrics;  // end-to-end, or per-layer when traced
  CheckReport checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
};

bool IsWorkload(const std::string& name);

Outcome RunWorkload(const Config& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
