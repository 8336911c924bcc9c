# Proves the Chrome trace export works end to end: BENCH run with
# --trace=TRACE must exit 0 and write a non-empty TRACE holding traceEvents.
#
#   cmake -DBENCH=<bench binary> -DTRACE=<file> -P trace_smoke_test.cmake
if(NOT BENCH OR NOT TRACE)
  message(FATAL_ERROR "usage: cmake -DBENCH=<binary> -DTRACE=<file> -P trace_smoke_test.cmake")
endif()

file(REMOVE "${TRACE}")
execute_process(COMMAND "${BENCH}" "--trace=${TRACE}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${BENCH} --trace=${TRACE} exited '${rc}':\n${err}")
endif()
if(NOT EXISTS "${TRACE}")
  message(FATAL_ERROR "${BENCH} --trace=${TRACE} wrote no file")
endif()
file(READ "${TRACE}" trace)
string(FIND "${trace}" "\"traceEvents\"" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${TRACE} is empty or has no traceEvents")
endif()
file(SIZE "${TRACE}" bytes)
message(STATUS "${TRACE}: ${bytes} bytes with traceEvents")
