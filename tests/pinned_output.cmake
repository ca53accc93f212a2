# Runs BIN with ARGS and fails unless its stdout equals the GOLDEN file byte
# for byte. Used for plan_digest's pinned digests and search-work counts.
#   cmake -DBIN=<exe> [-DARGS=<arg>] -DGOLDEN=<file> -P pinned_output.cmake
execute_process(COMMAND ${BIN} ${ARGS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
file(READ ${GOLDEN} expected)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited ${rc}")
endif()
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "${BIN} ${ARGS} output differs from ${GOLDEN}\n"
                      "--- expected\n${expected}--- actual\n${actual}")
endif()
