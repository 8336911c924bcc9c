# Proves the fwlint binary gates: run tree-wide over a scratch root whose
# src/ holds one file, it must exit exactly 1 and print the finding when the
# file reads a string_view parameter after a co_await, and exit 0 once the
# file is clean.
#
#   cmake -DFWLINT=<fwlint binary> -DROOT=<scratch dir> -P gate_test.cmake
if(NOT FWLINT OR NOT ROOT)
  message(FATAL_ERROR "usage: cmake -DFWLINT=<binary> -DROOT=<dir> -P gate_test.cmake")
endif()

set(dirty_src [=[
#include <string_view>
struct Co { };
struct Awaitable { };
Awaitable Tick();
Co Echo(std::string_view name) {
  co_await Tick();
  (void)name.size();
}
]=])

set(clean_src [=[
#include <string>
int Tally(const std::string& s) { return static_cast<int>(s.size()); }
]=])

# Writes `src` as the root's only file and runs fwlint over the root.
function(lint_root src out_rc out_text)
  file(REMOVE_RECURSE "${ROOT}")
  file(WRITE "${ROOT}/src/probe.cc" "${src}")
  execute_process(COMMAND "${FWLINT}" "--root=${ROOT}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE text ERROR_VARIABLE text)
  set(${out_rc} "${rc}" PARENT_SCOPE)
  set(${out_text} "${text}" PARENT_SCOPE)
endfunction()

lint_root("${dirty_src}" rc text)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "fwlint on an injected finding exited '${rc}', want 1:\n${text}")
endif()
if(NOT text MATCHES "src/probe\\.cc:[0-9]+: \\[suspend-lifetime\\]")
  message(FATAL_ERROR "fwlint exited 1 but printed no [suspend-lifetime] line:\n${text}")
endif()

lint_root("${clean_src}" rc text)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "fwlint on a clean root exited '${rc}', want 0:\n${text}")
endif()

file(REMOVE_RECURSE "${ROOT}")
message(STATUS "fwlint gate OK: exit 1 on an injected finding, 0 once fixed")
