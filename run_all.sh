#!/bin/sh
# Regenerates the captured outputs checked into the repo root:
#   test_output.txt  — full ctest run
#   bench_output.txt — every bench binary (paper tables/figures + ablations)
#
# Flags:
#   --with-trace-smoke  also runs fig6_faasdom_nodejs with --trace=<tmp file>
#                       and fails unless the Chrome trace comes out non-empty.
set -e
cd "$(dirname "$0")"

with_trace_smoke=0
for arg in "$@"; do
  case "$arg" in
    --with-trace-smoke) with_trace_smoke=1 ;;
    *) echo "unknown flag: $arg (supported: --with-trace-smoke)" >&2; exit 2 ;;
  esac
done

# No -G: CMake reuses the generator build/ was configured with, or picks the
# default for a fresh directory.
cmake -B build
cmake --build build
# Lint gate: every fwlint check, zero findings.
build/tools/fwlint/fwlint --root=.
# Write the capture first, then fail on ctest's own exit status (a pipe into
# tee would report tee's).
ctest_status=0
ctest --test-dir build > test_output.txt 2>&1 || ctest_status=$?
cat test_output.txt
if [ "$ctest_status" -ne 0 ]; then
  echo "ctest FAILED (exit $ctest_status): see test_output.txt" >&2
  exit 1
fi
: > bench_output.txt
for b in build/bench/*; do
  if [ -x "$b" ] && [ ! -d "$b" ]; then
    echo "##### $(basename "$b") #####" >> bench_output.txt
    "$b" >> bench_output.txt 2>&1
    echo >> bench_output.txt
  fi
done
echo "wrote test_output.txt and bench_output.txt"

# Fault injection is strictly opt-in: a bench run with --faults=none must be
# byte-identical to a run without the flag.
build/bench/fig6_faasdom_nodejs > build/fig6_default.txt
build/bench/fig6_faasdom_nodejs --faults=none > build/fig6_faults_none.txt
if ! cmp -s build/fig6_default.txt build/fig6_faults_none.txt; then
  echo "fault-off check FAILED: --faults=none changed bench output" >&2
  diff build/fig6_default.txt build/fig6_faults_none.txt >&2 || true
  exit 1
fi
echo "fault-off check OK: --faults=none is byte-identical to the default"

# Perf trajectory: regenerate all six guarded fwbench/1 reports at CI scale
# and check them against the committed trajectory (>10% guarded regression
# fails; unchanged code diffs at exactly 0%).
python3 scripts/bench_trend.py selftest
build/bench/cluster_scale --smoke --no-baselines \
  --report=build/cluster_scale_report.json --profile=build/cluster_scale_profile > /dev/null
build/bench/fig9_realworld --report=build/fig9_report.json > /dev/null
build/bench/registry_cold_start --smoke --report=build/registry_report.json > /dev/null
build/bench/clone_uniqueness --smoke --report=build/clone_uniqueness_report.json > /dev/null
build/bench/elastic_fleet --smoke --report=build/elastic_fleet_report.json > /dev/null
build/bench/overload_resilience --smoke --report=build/overload_report.json > /dev/null
cp BENCH_trajectory.json build/trend_check.json
python3 scripts/bench_trend.py append --trajectory=build/trend_check.json --label=run_all \
  build/cluster_scale_report.json build/fig9_report.json build/registry_report.json \
  build/clone_uniqueness_report.json build/elastic_fleet_report.json build/overload_report.json
python3 scripts/bench_trend.py check --trajectory=build/trend_check.json
echo "perf trajectory OK (profile in build/cluster_scale_profile.topn.txt)"

if [ "$with_trace_smoke" = 1 ]; then
  trace_file=build/trace_smoke.json
  rm -f "$trace_file"
  build/bench/fig6_faasdom_nodejs --trace="$trace_file" > /dev/null
  if [ ! -s "$trace_file" ]; then
    echo "trace smoke FAILED: $trace_file missing or empty" >&2
    exit 1
  fi
  grep -q '"traceEvents"' "$trace_file" || {
    echo "trace smoke FAILED: $trace_file has no traceEvents" >&2
    exit 1
  }
  echo "trace smoke OK: $trace_file ($(wc -c < "$trace_file") bytes)"
fi
