#!/bin/sh
# Regenerates the captured outputs checked into the repo root:
#   test_output.txt  — full ctest run
#   bench_output.txt — every bench binary (paper tables/figures + ablations)
# The lint gate, the fault-off byte identity, the trace-export smoke and the
# perf-trajectory check are ctest entries (fwlint, bench_faults_none_output,
# bench_trace_smoke, bench_trajectory), run with the rest; the trajectory
# reports and the cluster_scale profile land in build/bench/trajectory/.
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
