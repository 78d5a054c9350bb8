# ctest driver for the skyran_cli smoke checks: run the CLI with ARGS and
# require exit status RC and, when OUT / ERR are given, stdout / stderr
# matching those regular expressions.
#
# Expected -D definitions: EXE (the CLI binary), ARGS (space-separated), RC;
# optional OUT and ERR.
if(NOT EXE OR NOT DEFINED RC)
  message(FATAL_ERROR "cli_smoke.cmake needs -DEXE=... and -DRC=...")
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${EXE} ${args}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL RC)
  message(FATAL_ERROR "${EXE} ${ARGS} exited with ${rc}, expected ${RC}:\n${out}\n${err}")
endif()
if(DEFINED OUT AND NOT out MATCHES "${OUT}")
  message(FATAL_ERROR "${EXE} ${ARGS} stdout does not match '${OUT}':\n${out}")
endif()
if(DEFINED ERR AND NOT err MATCHES "${ERR}")
  message(FATAL_ERROR "${EXE} ${ARGS} stderr does not match '${ERR}':\n${err}")
endif()
