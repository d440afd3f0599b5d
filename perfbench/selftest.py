#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json briefly and asserts that:
  * the run passes its output checks and exits 0;
  * the last stdout line is the JSON result, and it carries every
    end-to-end metric (untraced run) or per-layer metric (traced run) of
    BENCHMARK.json with the declared unit and a finite value;
  * a deliberately wrong expectation (every 1-hop read's expected degree
    off by one) fails the output check with a nonzero exit.
Exits 0 when every assertion holds, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", SECONDS, "--trace", trace]
    cmd += list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def check_metrics(label, result, declared, failures):
    metrics = result.get("metrics", {})
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        got = metrics.get(name)
        if got is None:
            failures.append(f"{label}: metric {name} missing")
        elif got.get("unit") != unit:
            failures.append(f"{label}: {name} has unit {got.get('unit')}, "
                            f"declared {unit}")
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            failures.append(f"{label}: {name} value {got.get('value')!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, declared in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            label = f"{workload} --trace {trace}"
            proc, result = run(workload, trace)
            if proc.returncode != 0 or result is None or \
                    result.get("correct") is not True:
                failures.append(f"{label}: exit {proc.returncode}, "
                                f"result {result!r:.200}")
                continue
            check_metrics(label, result, declared, failures)
            if trace == "0":
                for entry in declared:
                    value = result["metrics"].get(entry["name"], {}).get(
                        "value", 0)
                    if not value > 0:
                        failures.append(f"{label}: {entry['name']} = "
                                        f"{value}, end-to-end metrics are "
                                        f"never 0")
            print(f"ok   {label}", flush=True)

    proc, result = run("skewed_reads", "0", ["--degree-skew", "1"])
    if proc.returncode == 0 or (result is not None and result.get("correct")):
        failures.append("a 1-hop expectation off by one passed the output "
                        "check")
    else:
        print("ok   wrong expectation fails the output check", flush=True)

    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
