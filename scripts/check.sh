#!/usr/bin/env bash
# Full local verification: repo lint, a sanitized build, and the test
# suite. Run from the repo root. Pass `tsan` to use the ThreadSanitizer
# preset instead of asan-ubsan (they cannot be combined in one binary).
#
#   scripts/check.sh          # lint + asan-ubsan build + ctest
#   scripts/check.sh tsan     # lint + tsan build + ctest

set -euo pipefail
cd "$(dirname "$0")/.."

preset="${1:-asan-ubsan}"
case "$preset" in
  asan-ubsan|tsan|default) ;;
  *) echo "usage: $0 [asan-ubsan|tsan|default]" >&2; exit 2 ;;
esac

echo "== repo lint =="
python3 tools/lint.py .

echo "== layering check =="
python3 tools/layering_check.py .

echo "== status audit =="
# Machine-readable findings/suppression summary lands next to the build.
mkdir -p build
python3 tools/status_audit.py . --json build/status_audit.json

echo "== critical-section audit =="
python3 tools/critical_section_audit.py . --json build/critical_section_audit.json

# clang_tidy also runs as a ctest below (zero-findings gate over
# compile_commands.json); it self-skips when no clang-tidy binary exists.

echo "== configure ($preset preset) =="
cmake --preset "$preset"

echo "== build =="
cmake --build --preset "$preset" -j "$(nproc)"

echo "== test =="
ctest --preset "$preset" -j "$(nproc)"

# The sanitizer presets build without the benches, so the BENCH_*.json
# smoke test needs the default preset's fig7_edgecut. The default preset
# already ran it as part of ctest above.
if [ "$preset" != "default" ]; then
  echo "== bench smoke (default preset) =="
  cmake --preset default
  cmake --build --preset default -j "$(nproc)" \
    --target fig7_edgecut --target concurrent_reads \
    --target write_throughput --target message_rtt
  ctest --test-dir build -R bench_smoke --output-on-failure
fi

echo "OK: lint + layering + status audit + critical-section audit + $preset build + tests + bench smoke all green"
