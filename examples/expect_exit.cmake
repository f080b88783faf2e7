# Runs EXE with ARGS (one space-separated string) and fails unless it
# exits with EXPECT_CODE and its combined stdout/stderr matches
# EXPECT_REGEX. ctest's PASS_REGULAR_EXPRESSION alone ignores the exit
# code, so a crash that prints the right message would pass there.
#
#   cmake -DEXE=<program> "-DARGS=<args>" -DEXPECT_CODE=<n>
#         "-DEXPECT_REGEX=<regex>" -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE output
                ERROR_VARIABLE output)
if(NOT code STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "exit status '${code}', expected ${EXPECT_CODE}:\n${output}")
endif()
if(NOT output MATCHES "${EXPECT_REGEX}")
  message(FATAL_ERROR "output does not match '${EXPECT_REGEX}':\n${output}")
endif()
