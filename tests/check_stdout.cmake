# Stdout golden for one bench_* or example_* binary, run as
#   cmake -DBINARY=<program> -DGOLDEN=<tests/golden/stdout/<name>.txt>
#         -DWORK_DIR=<scratch dir> -P check_stdout.cmake
#
# Runs the program with no arguments in a fresh WORK_DIR (some write files
# into their working directory) and requires its stdout to equal GOLDEN
# byte for byte. A failing run leaves its stdout in WORK_DIR/stdout.txt.
foreach(var BINARY GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_stdout.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${BINARY}"
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_FILE "${WORK_DIR}/stdout.txt"
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} failed (${rc}):\n${err}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}"
          "${WORK_DIR}/stdout.txt"
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${WORK_DIR}/stdout.txt differs from ${GOLDEN}")
endif()
