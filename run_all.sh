#!/bin/sh
# Regenerates the captured outputs checked into the repo root:
#   test_output.txt  — full ctest run
#   bench_output.txt — every bench binary (paper tables/figures + ablations)
# The fault-off byte identity and the trace-export smoke are ctest entries
# (bench_faults_none_output, bench_trace_smoke), run with the rest.
set -e
cd "$(dirname "$0")"

if [ "$#" -ne 0 ]; then
  echo "run_all.sh takes no arguments" >&2
  exit 2
fi

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
