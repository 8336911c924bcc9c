# Proves a bench rejects a bad flag as a usage error: run with ARG, it must
# exit exactly 2 and name ARG on stderr.
#
#   cmake -DBENCH=<bench binary> -DARG=<bad flag> -P usage_error_test.cmake
if(NOT BENCH OR NOT ARG)
  message(FATAL_ERROR "usage: cmake -DBENCH=<binary> -DARG=<flag> -P usage_error_test.cmake")
endif()

execute_process(COMMAND "${BENCH}" "${ARG}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${BENCH} ${ARG} exited '${rc}', want 2:\n${out}${err}")
endif()
string(FIND "${err}" "${ARG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BENCH} ${ARG} exited 2 but did not name ${ARG}:\n${err}")
endif()
message(STATUS "${ARG} rejected: ${err}")
