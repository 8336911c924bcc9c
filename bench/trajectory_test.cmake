# The perf-trajectory check: gates the six guarded fwbench/1 reports in
# OUT_DIR against the committed trajectory. The five scenario reports come
# from the *_smoke ctest entries (the bench_trajectory_reports fixture, see
# CMakeLists.txt), which run each bench at CI scale and fail on its embedded
# acceptance or same-seed replay checks; this script adds fig9_realworld's
# report. Then scripts/bench_trend.py runs its selftest, appends the reports
# to a copy of TRAJECTORY (OUT_DIR/ci_trajectory.json) and fails on a >10%
# regression of any guarded metric; unchanged code diffs at exactly 0%.
#
#   cmake -DBENCH_DIR=<dir> -DOUT_DIR=<dir> -DTRAJECTORY=<file> -DTREND=<bench_trend.py>
#         -DPYTHON=<python3> -P trajectory_test.cmake
if(NOT BENCH_DIR OR NOT OUT_DIR OR NOT TRAJECTORY OR NOT TREND OR NOT PYTHON)
  message(FATAL_ERROR
          "usage: cmake -DBENCH_DIR=<dir> -DOUT_DIR=<dir> -DTRAJECTORY=<file> "
          "-DTREND=<bench_trend.py> -DPYTHON=<python3> -P trajectory_test.cmake")
endif()

# Runs one command; a non-zero exit fails the check with its stderr.
function(run_step name)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${name} exited '${rc}':\n${out}${err}")
  endif()
endfunction()

run_step(fig9_realworld "${BENCH_DIR}/fig9_realworld" "--report=${OUT_DIR}/fig9_report.json")

run_step("bench_trend.py selftest" "${PYTHON}" "${TREND}" selftest)
run_step("copy ${TRAJECTORY}" "${CMAKE_COMMAND}" -E copy "${TRAJECTORY}"
         "${OUT_DIR}/ci_trajectory.json")
run_step("bench_trend.py append" "${PYTHON}" "${TREND}" append
         "--trajectory=${OUT_DIR}/ci_trajectory.json" --label=ci
         "${OUT_DIR}/cluster_scale_report.json" "${OUT_DIR}/fig9_report.json"
         "${OUT_DIR}/registry_report.json" "${OUT_DIR}/clone_uniqueness_report.json"
         "${OUT_DIR}/elastic_fleet_report.json" "${OUT_DIR}/overload_report.json")
execute_process(COMMAND "${PYTHON}" "${TREND}" check "--trajectory=${OUT_DIR}/ci_trajectory.json"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "bench_trend.py check exited '${rc}'")
endif()
