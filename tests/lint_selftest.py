#!/usr/bin/env python3
"""Self-test for tools/lint.py; runs as the `lint_selftest` ctest.

Builds throwaway fixture repos in a temp directory and asserts that the
lint flags known-bad trees and passes known-good ones. The fixtures pin
the regressions that motivated rule changes:

  * CMake source-listing must match on the **src-relative path** — a
    `.cc` sitting in the wrong directory while a same-named entry exists
    in another module's list used to pass via the bare-name fallback.
  * The determinism rules must fire on every banned construct inside
    src/sim and src/partition (std::random_device, rand(), wall/steady
    clocks, std::unordered_*, pointer-keyed map/set) and stay quiet
    outside those modules and on `lint:allow(determinism)` lines.
  * The failpoint rules must flag HERMES_FAILPOINT* macros outside the
    storage stack and a failpoint armed outside tests/ — and stay quiet
    on sites inside src/storage//src/graphdb/ and on arming in tests/.
  * Real sleeps (sleep_for/sleep_until) in src/ must be flagged outside
    the cluster's opt-in hop-latency model (hermes_cluster.cc).
  * Write-path streams in src/storage/ must be flagged
    (std::ofstream/std::fstream can never fsync) while read-only
    std::ifstream and ofstreams outside the storage layer stay quiet.
  * Request-id minting outside src/net/ must be flagged (a retry loop
    with fresh ids defeats the (src, request_id) dedup) while the
    server's reply echo and Options::first_request_id stay quiet.
  * Failpoint names armed in tests/*.cc must name a HERMES_FAILPOINT*
    site in src/ (arming a name nothing evaluates injects nothing),
    while the `test.*` registry-unit names and metric keys that merely
    look dotted stay quiet.

Usage: tests/lint_selftest.py [repo_root]   (exit 0 = all cases pass)
"""

import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else Path.cwd()
LINT = REPO_ROOT / "tools" / "lint.py"

FAILURES = []


def run_lint(root):
    proc = subprocess.run([sys.executable, str(LINT), str(root)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def write(root, rel, text):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def guard_header(rel_to_src, body=""):
    guard = "HERMES_" + rel_to_src.replace("/", "_").replace(".", "_").upper() + "_"
    return f"#ifndef {guard}\n#define {guard}\n{body}\n#endif  // {guard}\n"


def check(name, condition, detail=""):
    if condition:
        print(f"  ok: {name}")
    else:
        print(f"  FAIL: {name}\n{detail}")
        FAILURES.append(name)


def case_clean_tree_passes():
    print("case: clean tree passes")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(root, "src/CMakeLists.txt", "add_library(x STATIC common/a.cc)\n")
        write(root, "src/common/a.cc", "int a() { return 1; }\n")
        write(root, "src/common/a.h", guard_header("common/a.h", "int a();"))
        code, out = run_lint(root)
        check("clean tree exits 0", code == 0, out)


def case_wrong_directory_cc_is_flagged():
    """Regression: `cc.name in listed` used to let a file in the wrong
    directory (or covered only by a stale same-named entry) pass."""
    print("case: wrong-directory .cc no longer passes via bare-name match")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        # CMake lists common/a.cc, but the file actually lives in
        # src/storage/. The basename matches; the src-relative path does
        # not — this must be a finding.
        write(root, "src/CMakeLists.txt", "add_library(x STATIC common/a.cc)\n")
        write(root, "src/storage/a.cc", "int a() { return 1; }\n")
        code, out = run_lint(root)
        check("wrong-directory .cc exits 1", code == 1, out)
        check("finding names the unlisted path",
              "src/storage/a.cc: not listed" in out, out)


def case_determinism_rules_fire():
    print("case: determinism rules fire in src/sim and src/partition")
    bad = """
#include <chrono>
#include <random>
#include <unordered_map>
inline unsigned Seed() { return std::random_device{}(); }
inline int Legacy() { return rand(); }
inline long Wall() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
inline std::unordered_map<int, int> table;
inline std::map<int*, int> by_pointer;
"""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(root, "src/CMakeLists.txt", "\n")
        write(root, "src/sim/bad.h", guard_header("sim/bad.h", bad))
        code, out = run_lint(root)
        check("nondeterministic sim header exits 1", code == 1, out)
        for needle in ("std::random_device", "rand()/srand()",
                       "wall/steady clock", "std::unordered_*",
                       "pointer-keyed map/set"):
            check(f"flags {needle!r}", needle in out, out)


def case_determinism_scope_and_suppression():
    print("case: determinism rules respect module scope and the allow marker")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(root, "src/CMakeLists.txt", "\n")
        # Same banned tokens, but in src/graphdb — out of scope.
        write(root, "src/graphdb/ok.h", guard_header(
            "graphdb/ok.h",
            "#include <unordered_map>\ninline std::unordered_map<int,int> m;"))
        # In scope, but with an audited suppression on the line.
        write(root, "src/partition/audited.h", guard_header(
            "partition/audited.h",
            "#include <unordered_map>\n"
            "inline std::unordered_map<int, int> members_only;  "
            "// lint:allow(determinism) membership checks only, never iterated"))
        code, out = run_lint(root)
        check("out-of-scope and suppressed uses exit 0", code == 0, out)


def case_failpoint_containment():
    print("case: HERMES_FAILPOINT macros are flagged outside the storage stack")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(root, "src/CMakeLists.txt",
              "add_library(x STATIC partition/bad.cc storage/ok.cc)\n")
        write(root, "src/partition/bad.cc",
              "int f() {\n  HERMES_FAILPOINT_IOERROR(\"partition.oops\");\n"
              "  return 0;\n}\n")
        write(root, "src/storage/ok.cc",
              "int g() {\n  HERMES_FAILPOINT_IOERROR(\"storage.fine\");\n"
              "  return 0;\n}\n")
        code, out = run_lint(root)
        check("out-of-stack failpoint exits 1", code == 1, out)
        check("finding names the macro and file",
              "src/partition/bad.cc" in out and "HERMES_FAILPOINT" in out, out)
        check("in-stack site is not flagged", "storage/ok.cc" not in out, out)


def case_failpoints_armed_only_in_tests():
    print("case: only tests/ may arm a failpoint")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(root, "src/CMakeLists.txt",
              "add_library(x STATIC storage/arm.cc)\n")
        write(root, "src/storage/arm.cc",
              "void f() {\n  FailpointRegistry::Global().Arm(\"test.x\", "
              "cfg);\n}\n")
        write(root, "examples/arm.cpp",
              "int main() { FailpointRegistry::Global().Arm(\"test.x\", "
              "cfg); }\n")
        write(root, "tests/arm_ok.cc",
              "void t() { FailpointRegistry::Global().Arm(\"test.x\", "
              "cfg); }\n")
        code, out = run_lint(root)
        check("arming outside tests/ exits 1", code == 1, out)
        check("flags the src/ file", "src/storage/arm.cc:2" in out, out)
        check("flags the examples/ file", "examples/arm.cpp:1" in out, out)
        check("tests/ file is not flagged", "arm_ok.cc" not in out, out)


def case_real_sleeps_are_contained():
    """Sleeps in src/ are banned outside the cluster's opt-in hop-latency
    model (Options::read_hop_latency_us in src/cluster/hermes_cluster.cc)."""
    print("case: real sleeps are flagged outside the cluster latency model")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(root, "src/CMakeLists.txt",
              "add_library(x STATIC storage/s.cc cluster/hermes_cluster.cc)\n")
        write(root, "src/storage/s.cc",
              "void s() { std::this_thread::sleep_for(d); }\n")
        write(root, "src/cluster/hermes_cluster.cc",
              "void h() { std::this_thread::sleep_until(t); }\n")
        code, out = run_lint(root)
        check("sleep_for outside allowlist is a finding",
              code != 0 and "storage/s.cc" in out and "sleep_for" in out, out)
        check("allowlisted cluster sleep is quiet",
              "hermes_cluster.cc" not in out, out)


def case_storage_write_streams_are_banned():
    """The WAL durability hole shipped because std::ofstream::flush()
    looks like a sync; the rule pins every storage write path to the fd
    appender, whose Sync() is a real fsync."""
    print("case: std::ofstream in src/storage/ is flagged; ifstream and "
          "non-storage ofstreams are not")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(root, "src/CMakeLists.txt",
              "add_library(x STATIC storage/bad.cc storage/scan.cc "
              "sim/report.cc)\n")
        write(root, "src/storage/bad.cc",
              "#include <fstream>\n"
              "void w() { std::ofstream out(\"wal.log\"); out << 1; }\n")
        write(root, "src/storage/scan.cc",
              "#include <fstream>\n"
              "int r() { std::ifstream in(\"wal.log\"); return in.get(); }\n")
        write(root, "src/sim/report.cc",
              "#include <fstream>\n"
              "void dump() { std::ofstream out(\"report.json\"); }\n")
        code, out = run_lint(root)
        check("storage ofstream exits 1",
              code == 1 and "storage/bad.cc" in out, out)
        check("finding points at the fd appender",
              "fd_appender" in out, out)
        check("read-only ifstream in storage is quiet",
              "storage/scan.cc" not in out, out)
        check("ofstream outside src/storage/ is quiet",
              "sim/report.cc" not in out, out)


def case_request_id_minting_is_banned_outside_net():
    """Exactly-once regression guard: a retry loop that mints a fresh
    request id per attempt defeats the server's (src, request_id) dedup,
    so outside src/net/ the lint bans request-id assignment/increment
    while keeping the two legitimate shapes (echo + first_request_id)."""
    print("case: request-id minting is flagged outside src/net/")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(root, "src/CMakeLists.txt",
              "add_library(x STATIC cluster/bad.cc server/echo.cc "
              "net/bus.cc)\n")
        # A caller-side retry loop minting a new token per attempt —
        # exactly the bug class the rule exists for.
        write(root, "src/cluster/bad.cc",
              "void retry() {\n"
              "  for (int a = 0; a < 3; ++a) {\n"
              "    env.request_id = next_id++;\n"
              "    Send(env);\n"
              "  }\n"
              "}\n")
        # Echoing the incoming token into the reply is the server's job
        # and must stay quiet.
        write(root, "src/server/echo.cc",
              "void reply_to(const Envelope* env) {\n"
              "  reply.request_id = env->request_id;\n"
              "  options.bus.first_request_id = 7;\n"
              "}\n")
        # The bus itself owns minting.
        write(root, "src/net/bus.cc",
              "void mint() { request.request_id = next_request_id_++; }\n")
        code, out = run_lint(root)
        check("caller-side mint exits 1",
              code == 1 and "cluster/bad.cc" in out, out)
        check("finding names the idempotency token",
              "idempotency token" in out, out)
        check("server echo + first_request_id stay quiet",
              "server/echo.cc" not in out, out)
        check("the bus itself stays quiet", "net/bus.cc" not in out, out)


def case_failpoint_name_drift_is_flagged():
    """A site renamed in src/ while a test keeps arming the old name
    silently drops that coverage; the rule pins test literals to the
    sites src/ actually evaluates."""
    print("case: failpoint names in tests must name a src/ site")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write(root, "src/CMakeLists.txt",
              "add_library(x STATIC storage/snap.cc)\n")
        write(root, "src/storage/snap.cc",
              "int f() {\n  HERMES_FAILPOINT_IOERROR(\"snap.read.io_error\");\n"
              "  return 0;\n}\n")
        write(root, "tests/t.cc",
              "void t() {\n"
              "  Arm(\"gone.read.io_error\", cfg);\n"
              "  Arm(\"snap.read.io_error\", cfg);\n"
              "  Arm(\"test.nth\", cfg);\n"
              "  Arm(\"test.power.crash\", cfg);\n"
              "  Count(\"lock.wal.mu.wait_us\");\n"
              "}\n")
        code, out = run_lint(root)
        check("unknown failpoint name exits 1",
              code == 1 and "gone.read.io_error" in out, out)
        check("finding points at the test line", "tests/t.cc:2" in out, out)
        check("a name src/ evaluates is quiet",
              "snap.read.io_error" not in out, out)
        check("test.* names and metric keys are quiet",
              "test.nth" not in out and "test.power.crash" not in out
              and "lock.wal.mu.wait_us" not in out, out)


def case_repo_itself_is_clean():
    print("case: the repo itself lints clean")
    code, out = run_lint(REPO_ROOT)
    check("repo exits 0", code == 0, out)


def main():
    for case in (case_clean_tree_passes,
                 case_wrong_directory_cc_is_flagged,
                 case_determinism_rules_fire,
                 case_determinism_scope_and_suppression,
                 case_failpoint_containment,
                 case_failpoints_armed_only_in_tests,
                 case_real_sleeps_are_contained,
                 case_storage_write_streams_are_banned,
                 case_request_id_minting_is_banned_outside_net,
                 case_failpoint_name_drift_is_flagged,
                 case_repo_itself_is_clean):
        case()
    if FAILURES:
        print(f"lint_selftest: {len(FAILURES)} case(s) FAILED: {FAILURES}")
        return 1
    print("lint_selftest: all cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
