# Run an executable and require an exact number of checker diagnostic
# lines on stderr, so a checker, example or driver change that moves the
# count is caught in either direction (cmake/diag_pins.cmake).
#
# Usage:
#   cmake -DEXE=<path> ["-DARGS=<arg;...>"] -DPATTERN=<regex> -DEXPECTED=<n> \
#         -P check_diag_count.cmake
if(NOT DEFINED EXE OR NOT DEFINED PATTERN OR NOT DEFINED EXPECTED)
  message(FATAL_ERROR "check_diag_count.cmake needs -DEXE, -DPATTERN, -DEXPECTED")
endif()

execute_process(
  COMMAND ${EXE} ${ARGS}
  OUTPUT_QUIET
  ERROR_VARIABLE diag_output
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()

string(REGEX MATCHALL "${PATTERN}" matches "${diag_output}")
list(LENGTH matches count)
if(NOT count EQUAL EXPECTED)
  message(FATAL_ERROR
    "${EXE}: expected ${EXPECTED} diagnostic lines matching '${PATTERN}', got ${count}")
endif()
message(STATUS "${EXE}: ${count} '${PATTERN}' diagnostics (pinned)")
