// perfbench: the repository's end-to-end benchmark driver.
//
//   perfbench --workload <skewed_reads|write_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>]
//             [--degree-skew <k>]
//
// Prints a human-readable report, then, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when an output check fails or an operation ends in an error, 2 on
// bad arguments.

#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Config;
using perfbench::Outcome;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<skewed_reads|write_mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>] "
               "[--degree-skew <k>]\n",
               why);
  return 2;
}

/// Restricts this process, and so every thread the program under test
/// starts, to one CPU: the highest one it may run on. Untraced runs do
/// this because their end-to-end figures carry bounds. On the virtualised
/// host this benchmark was tuned on, a wake-up on another vCPU waits
/// whenever the hypervisor has descheduled that vCPU, and a lock holder
/// descheduled that way stalls every waiter; unpinned, or on two CPUs,
/// ten runs spread by far more than the bounds (README.md, "Noise floor").
/// Traced runs stay on every CPU, so their per-layer lock and concurrency
/// figures show real parallelism. Returns the CPU, or -1 when the affinity
/// cannot be set.
int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
  }
  return -1;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  config.workdir = ".bench_build/perfbench-work";
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else if (flag == "--degree-skew") {
      config.degree_skew = std::atoi(value);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !perfbench::IsWorkload(config.workload)) {
    return Usage("--workload must name one of the workloads");
  }
  if (!have_seed) return Usage("--seed is required");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");

  const int cpu = config.trace ? -1 : PinToOneCpu();
  const Outcome outcome = perfbench::RunWorkload(config);

  std::printf("workload %s seed %llu seconds %g trace %d cpu %s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0,
              cpu >= 0 ? std::to_string(cpu).c_str() : "all");
  for (const auto& [name, m] : outcome.metrics) {
    if (m.samples > 0) {
      std::printf("  %-44s %16.4f %-14s (n=%llu)\n", name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("  %-44s %16.4f %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("attempted %llu failed %llu%s%s\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.first_error.empty() ? "" : "; first error: ",
              outcome.first_error.c_str());
  for (const std::string& msg : outcome.checks.messages()) {
    std::printf("CHECK FAILED: %s\n", msg.c_str());
  }
  const bool correct = outcome.checks.ok() && outcome.failed == 0;
  std::printf("output checks: %s (%llu failures)\n", correct ? "ok" : "FAILED",
              static_cast<unsigned long long>(outcome.checks.failures()));

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : outcome.metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
