# partib_pin_diag_count(<test> <target> <pattern> <expected> [args...]):
# run <target> with [args...] and require exactly <expected> checker
# diagnostic lines matching <pattern> on its stderr
# (cmake/check_diag_count.cmake).  Used only when PARTIB_CHECK is on: with
# the checker compiled out every count reads 0 and pins nothing.
function(partib_pin_diag_count testname target pattern expected)
  add_test(NAME ${testname}
    COMMAND ${CMAKE_COMMAND}
      -DEXE=$<TARGET_FILE:${target}>
      "-DARGS=${ARGN}"
      -DPATTERN=${pattern}
      -DEXPECTED=${expected}
      -P ${CMAKE_SOURCE_DIR}/cmake/check_diag_count.cmake)
endfunction()
