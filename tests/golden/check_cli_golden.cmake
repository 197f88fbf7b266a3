# Byte-contract check for `rta_cli`: run one command, drop what changes from
# run to run, and require the rest to equal a committed golden file byte for
# byte. `serve` writes its responses to OUT and loses the wall-clock
# `latency_us` field of each (the rule of tests/support/strip_latency.hpp);
# the text commands (analyze, validate) print to stdout and lose the
# `analysis wall time:` line.
#
#   cmake -DRTA_CLI=<rta_cli> -DGOLDEN=<file> -DOUT=<file> -DEXPECT_EXIT=<n>
#         "-DCLI_ARGS=serve|<system>|--requests|<file>|..." -P check_cli_golden.cmake
#
# On a mismatch the stripped output is left in OUT.stripped for a diff
# against GOLDEN. A change that moves the bytes on purpose regenerates the
# golden from that file.

foreach(var RTA_CLI GOLDEN OUT EXPECT_EXIT CLI_ARGS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_cli_golden: ${var} is not set")
  endif()
endforeach()

string(REPLACE "|" ";" CLI_ARGS "${CLI_ARGS}")
list(GET CLI_ARGS 0 command)
if(command STREQUAL "serve")
  list(APPEND CLI_ARGS --out ${OUT})
endif()
execute_process(
  COMMAND ${RTA_CLI} ${CLI_ARGS}
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE output)
if(NOT exit_code STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "${command} exited ${exit_code}, expected ${EXPECT_EXIT}")
endif()

if(command STREQUAL "serve")
  file(READ ${OUT} output)
  string(REGEX REPLACE ",\"latency_us\":[^,}]*" "" stripped "${output}")
else()
  string(REGEX REPLACE "analysis wall time:[^\n]*\n" "" stripped "${output}")
endif()
file(READ ${GOLDEN} golden)
if(NOT stripped STREQUAL golden)
  file(WRITE ${OUT}.stripped "${stripped}")
  message(FATAL_ERROR "${command} output differs from ${GOLDEN}; see ${OUT}.stripped")
endif()
