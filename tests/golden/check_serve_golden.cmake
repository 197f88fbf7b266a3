# Byte-contract check for `rta_cli serve`: run one request stream, drop the
# wall-clock `latency_us` field from every response (the rule of
# tests/support/strip_latency.hpp), and require the rest to equal a
# committed golden file byte for byte.
#
#   cmake -DRTA_CLI=<rta_cli> -DGOLDEN=<file> -DOUT=<file> -DEXPECT_EXIT=<n>
#         "-DSERVE_ARGS=<system>|--requests|<file>|..." -P check_serve_golden.cmake
#
# On a mismatch the stripped responses are left in OUT.stripped for a diff
# against GOLDEN. A change that moves the bytes on purpose regenerates the
# golden from that file.

foreach(var RTA_CLI GOLDEN OUT EXPECT_EXIT SERVE_ARGS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_serve_golden: ${var} is not set")
  endif()
endforeach()

string(REPLACE "|" ";" SERVE_ARGS "${SERVE_ARGS}")
execute_process(
  COMMAND ${RTA_CLI} serve ${SERVE_ARGS} --out ${OUT}
  RESULT_VARIABLE exit_code
  OUTPUT_QUIET)
if(NOT exit_code STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "serve exited ${exit_code}, expected ${EXPECT_EXIT}")
endif()

file(READ ${OUT} responses)
string(REGEX REPLACE ",\"latency_us\":[^,}]*" "" stripped "${responses}")
file(READ ${GOLDEN} golden)
if(NOT stripped STREQUAL golden)
  file(WRITE ${OUT}.stripped "${stripped}")
  message(FATAL_ERROR
    "serve responses differ from ${GOLDEN}; see ${OUT}.stripped")
endif()
