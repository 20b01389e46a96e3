# Bad-input test driver: runs the CLI with arguments it must refuse and
# checks that it exits with status 2 and the usage text before doing any
# work (no system is built or loaded).
#
# Usage (what tests/CMakeLists.txt generates):
#   cmake -DBINARY=<path> "-DARGS=run --procz 4" -P cmake/cli_rejects.cmake
if(NOT DEFINED BINARY OR NOT DEFINED ARGS)
  message(FATAL_ERROR "cli_rejects.cmake needs -DBINARY=... and -DARGS=...")
endif()

separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BINARY}" ${arg_list}
  OUTPUT_VARIABLE stdout_out
  ERROR_VARIABLE stderr_out
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BINARY} ${ARGS} exited with ${rc}, expected 2\n"
    "stdout:\n${stdout_out}\nstderr:\n${stderr_out}")
endif()
if(NOT stdout_out MATCHES "usage:")
  message(FATAL_ERROR "${BINARY} ${ARGS} printed no usage text\n"
    "stdout:\n${stdout_out}")
endif()
if(stdout_out MATCHES "building|loading")
  message(FATAL_ERROR "${BINARY} ${ARGS} started work before rejecting "
    "its arguments\nstdout:\n${stdout_out}")
endif()
