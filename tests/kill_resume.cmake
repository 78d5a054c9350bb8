# ctest driver for the kill-and-resume suite: SIGKILL a shipped binary at a
# crash point, rerun it on the same $SKYRAN_CKPT_DIR, and require
#   (a) the crashed run to die by SIGKILL (status 137 through sh),
#   (b) the rerun to report "resumed from generation RESUMED" on stderr,
#   (c) the rerun's newest generation file to be byte-identical to that of
#       an uninterrupted 1-worker run, and, when GOLDEN is given, its stdout
#       to equal GOLDEN.
#
# Expected -D definitions: EXE; PREFIX and EXT (the generation file names);
# POINT and HIT (SKYRAN_CRASH_AT / SKYRAN_CRASH_HIT); CRASH_THREADS and
# RESUME_THREADS (SKYRAN_THREADS of the crashed run and of the rerun);
# RESUMED; WORK (a scratch directory). Optional: ARGS (space-separated) and
# GOLDEN (compared with SKYRAN_SIMD=off, as golden_replay.cmake does).
foreach(var EXE PREFIX EXT POINT HIT CRASH_THREADS RESUME_THREADS RESUMED WORK)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "kill_resume.cmake needs -D${var}=...")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
if(DEFINED GOLDEN)
  set(ENV{SKYRAN_SIMD} "off")
endif()
unset(ENV{SKYRAN_CRASH_AT})
unset(ENV{SKYRAN_CRASH_HIT})
file(REMOVE_RECURSE ${WORK})

# Run EXE on checkpoint directory `dir` at `threads` workers. The shell keeps
# running after EXE, so a death by signal N reaches us as status 128 + N.
macro(run dir threads)
  set(ENV{SKYRAN_CKPT_DIR} ${dir})
  set(ENV{SKYRAN_THREADS} ${threads})
  execute_process(
    COMMAND sh -c "\"$0\" \"$@\"; exit $?" ${EXE} ${args}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
endmacro()

# Newest generation file in `dir`, by name (zero-padded: name == number order).
function(newest dir var)
  file(GLOB gens "${dir}/${PREFIX}*${EXT}")
  if(NOT gens)
    message(FATAL_ERROR "no ${PREFIX}*${EXT} generation in ${dir}")
  endif()
  list(SORT gens)
  list(GET gens -1 last)
  set(${var} ${last} PARENT_SCOPE)
endfunction()

run(${WORK}/reference 1)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "uninterrupted ${EXE} ${ARGS} exited with ${rc}:\n${err}")
endif()

set(ENV{SKYRAN_CRASH_AT} ${POINT})
set(ENV{SKYRAN_CRASH_HIT} ${HIT})
run(${WORK}/resumed ${CRASH_THREADS})
unset(ENV{SKYRAN_CRASH_AT})
unset(ENV{SKYRAN_CRASH_HIT})
if(NOT rc EQUAL 137)
  message(FATAL_ERROR
    "${EXE} ${ARGS} armed at ${POINT} hit ${HIT} exited with ${rc}, expected "
    "a SIGKILL (137):\n${err}")
endif()

run(${WORK}/resumed ${RESUME_THREADS})
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "rerun of ${EXE} ${ARGS} exited with ${rc}:\n${err}")
endif()
if(NOT err MATCHES "resumed from generation ${RESUMED}\n")
  message(FATAL_ERROR
    "rerun of ${EXE} ${ARGS} after a kill at ${POINT} hit ${HIT} did not report "
    "'resumed from generation ${RESUMED}'; stderr:\n${err}")
endif()

newest(${WORK}/reference expected)
newest(${WORK}/resumed actual)
get_filename_component(expected_name ${expected} NAME)
get_filename_component(actual_name ${actual} NAME)
if(NOT actual_name STREQUAL expected_name)
  message(FATAL_ERROR "resumed run ended at ${actual_name}, the uninterrupted run at ${expected_name}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${expected} ${actual}
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR
    "${actual} is not byte-identical to the uninterrupted run's ${expected}")
endif()

if(DEFINED GOLDEN)
  file(READ ${GOLDEN} golden)
  if(NOT out STREQUAL golden)
    message(FATAL_ERROR "resumed stdout is not byte-identical to ${GOLDEN}:\n${out}")
  endif()
endif()
file(REMOVE_RECURSE ${WORK})
