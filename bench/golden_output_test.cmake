# Runs each bench in BENCHES (comma-separated binary names under BENCH_DIR)
# at its default flags and compares its stdout with GOLDEN_DIR/<bench>.txt,
# so a change that moves any paper figure or table fails here. With
# FW_REGEN_GOLDENS set in the environment, rewrites the goldens instead.
# With ARG, each bench runs with that one flag and must still print its
# default-flag golden exactly (ARG never regenerates a golden).
#
#   cmake -DBENCH_DIR=<dir> -DBENCHES=<a,b,...> -DGOLDEN_DIR=<dir> [-DARG=<flag>] \
#         -P golden_output_test.cmake
if(NOT BENCH_DIR OR NOT BENCHES OR NOT GOLDEN_DIR)
  message(FATAL_ERROR
          "usage: cmake -DBENCH_DIR=<dir> -DBENCHES=<a,b,...> -DGOLDEN_DIR=<dir> "
          "-P golden_output_test.cmake")
endif()

string(REPLACE "," ";" benches "${BENCHES}")
set(failed "")
foreach(bench IN LISTS benches)
  execute_process(COMMAND "${BENCH_DIR}/${bench}" ${ARG}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  set(golden "${GOLDEN_DIR}/${bench}.txt")
  if(NOT rc STREQUAL "0")
    message("${bench} exited '${rc}':\n${err}")
    list(APPEND failed "${bench}")
  elseif(DEFINED ENV{FW_REGEN_GOLDENS} AND NOT ARG)
    file(WRITE "${golden}" "${out}")
    message(STATUS "regenerated ${golden}")
  elseif(NOT EXISTS "${golden}")
    message("missing ${golden}; generate it with FW_REGEN_GOLDENS=1")
    list(APPEND failed "${bench}")
  else()
    file(READ "${golden}" want)
    if(NOT out STREQUAL want)
      file(WRITE "${BENCH_DIR}/${bench}${ARG}.actual.txt" "${out}")
      message("${bench} ${ARG} stdout differs from ${golden}; "
              "see ${BENCH_DIR}/${bench}${ARG}.actual.txt")
      list(APPEND failed "${bench}")
    endif()
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "failed: ${failed}. If the change is intentional: "
                      "FW_REGEN_GOLDENS=1 ctest --test-dir build -R bench_golden_output")
endif()
