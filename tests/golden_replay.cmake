# ctest driver for the golden-replay checks: run an example binary with
# SKYRAN_SIMD=off and require its stdout to be byte-identical to the
# committed tests/golden/<name>.stdout. The scalar kernel variants are the
# pre-kernel-layer loops verbatim, so any diff here means the refactor (or a
# later change) silently moved numeric behavior instead of routing through
# the dispatch layer.
#
# With METRICS set, the run also dumps its telemetry there
# (SKYRAN_METRICS_OUT): stdout must still match the golden, and
# tools/metrics_report.py (REPORT, run by PYTHON) must accept the dump.
#
# Expected -D definitions: EXE (example binary), GOLDEN (committed stdout);
# optional METRICS, with PYTHON and REPORT.
if(NOT EXE OR NOT GOLDEN)
  message(FATAL_ERROR "golden_replay.cmake needs -DEXE=... and -DGOLDEN=...")
endif()

set(ENV{SKYRAN_SIMD} "off")
if(METRICS)
  get_filename_component(metrics_dir ${METRICS} DIRECTORY)
  file(MAKE_DIRECTORY ${metrics_dir})
  file(REMOVE ${METRICS})
  set(ENV{SKYRAN_METRICS_OUT} ${METRICS})
endif()
execute_process(
  COMMAND ${EXE}
  OUTPUT_VARIABLE actual
  ERROR_VARIABLE errout
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}:\n${errout}")
endif()

file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  file(WRITE ${GOLDEN}.actual "${actual}")
  message(FATAL_ERROR
    "SKYRAN_SIMD=off stdout of ${EXE} is not byte-identical to ${GOLDEN}. "
    "Fresh output written next to it as .actual; diff the two. If the "
    "change is intentional, re-capture the golden with SKYRAN_SIMD=off.")
endif()

if(METRICS)
  execute_process(
    COMMAND ${PYTHON} ${REPORT} ${METRICS}
    OUTPUT_VARIABLE report
    ERROR_VARIABLE report_err
    RESULT_VARIABLE report_rc)
  if(NOT report_rc EQUAL 0)
    message(FATAL_ERROR "metrics_report.py rejects the dump of ${EXE}:\n${report}${report_err}")
  endif()
endif()
