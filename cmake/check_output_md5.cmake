# Run an executable and require its stdout to hash to a pinned MD5.
# Pins the figure CSVs byte-for-byte (docs/PERF.md "fingerprints"): any
# change that perturbs simulated timings — however slightly — moves the
# hash.  The fault plane must keep these pins green when disabled.
#
# The run starts in WORKDIR, emptied first, and must leave it empty: a
# driver's output depends on its arguments alone, never on files an
# earlier run wrote.
#
# Usage:
#   cmake -DEXE=<path> "-DARGS=--csv" -DEXPECTED_MD5=<hex> \
#         -DWORKDIR=<fresh dir> -P check_output_md5.cmake
if(NOT DEFINED EXE OR NOT DEFINED EXPECTED_MD5 OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR
    "check_output_md5.cmake needs -DEXE, -DEXPECTED_MD5 and -DWORKDIR")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(
  COMMAND ${EXE} ${ARGS}
  WORKING_DIRECTORY "${WORKDIR}"
  OUTPUT_VARIABLE out
  ERROR_QUIET
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()

string(MD5 got "${out}")
if(NOT got STREQUAL EXPECTED_MD5)
  message(FATAL_ERROR
    "${EXE} ${ARGS}: stdout md5 ${got}, expected ${EXPECTED_MD5} — "
    "figure output is no longer byte-identical")
endif()

file(GLOB left LIST_DIRECTORIES true "${WORKDIR}/*")  # matches dotfiles too
if(left)
  message(FATAL_ERROR "${EXE} ${ARGS} left files in its working directory: "
    "${left}")
endif()
message(STATUS "${EXE}: stdout md5 ${got} (pinned)")
