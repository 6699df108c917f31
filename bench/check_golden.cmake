# Golden check: runs `flo_bench --filter SCENARIO` and fails unless it
# exits 0 and its stdout equals the committed GOLDEN file byte for byte.
# On a mismatch it names the first differing line and keeps the captured
# stdout at ACTUAL. Invoked by the golden.<scenario>.<core> ctests:
#   cmake -DBINARY=... -DSCENARIO=... -DGOLDEN=... -DACTUAL=... \
#         -P check_golden.cmake
cmake_minimum_required(VERSION 3.16)

execute_process(
  COMMAND "${BINARY}" --filter "${SCENARIO}"
  OUTPUT_FILE "${ACTUAL}"
  RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "flo_bench --filter ${SCENARIO} exited ${exit_code}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${ACTUAL}"
  RESULT_VARIABLE differs)
if(NOT differs)
  return()
endif()

# Walk both outputs a line at a time to the first line that differs.
file(READ "${GOLDEN}" expected)
file(READ "${ACTUAL}" actual)
set(line 1)
while(TRUE)
  string(FIND "${expected}" "\n" expected_end)
  string(FIND "${actual}" "\n" actual_end)
  string(SUBSTRING "${expected}" 0 ${expected_end} expected_line)
  string(SUBSTRING "${actual}" 0 ${actual_end} actual_line)
  if(NOT expected_line STREQUAL actual_line OR expected_end EQUAL -1
     OR actual_end EQUAL -1)
    break()
  endif()
  math(EXPR expected_end "${expected_end} + 1")
  math(EXPR actual_end "${actual_end} + 1")
  string(SUBSTRING "${expected}" ${expected_end} -1 expected)
  string(SUBSTRING "${actual}" ${actual_end} -1 actual)
  math(EXPR line "${line} + 1")
endwhile()
if(expected_line STREQUAL actual_line)
  set(actual_line "${actual_line}  (only the final newline differs)")
endif()
message(FATAL_ERROR
        "stdout of flo_bench --filter ${SCENARIO} differs from ${GOLDEN}\n"
        "first difference at line ${line}:\n"
        "  expected: ${expected_line}\n"
        "  actual:   ${actual_line}\n"
        "captured stdout: ${ACTUAL}")
