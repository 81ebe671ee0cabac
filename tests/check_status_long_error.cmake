# `esched status` prints a failed chunk's error in full, however long, and
# keeps the next line on its own line. Run as
#   cmake -DESCHED=<esched binary> -DWORK_DIR=<scratch dir>
#         -P check_status_long_error.cmake
#
# Expands fig6 into a queue, writes a failure marker for chunk 0 whose
# error is 1,500 bytes (longer than any fixed line buffer), and checks the
# status frame carries that line whole, newline included.
foreach(var ESCHED WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR
            "check_status_long_error.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${ESCHED}" queue init fig6 --queue-dir q
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_QUIET
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "queue init failed (${rc}):\n${err}")
endif()

string(REPEAT "x" 1500 error)
file(WRITE "${WORK_DIR}/q/failed/chunk-000000.json"
     "{\"chunk\":0,\"owner\":\"w\",\"error\":\"${error}\"}\n")

execute_process(
  COMMAND "${ESCHED}" status --queue-dir q
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "status failed (${rc}):\n${err}")
endif()

string(FIND "${out}" "    chunk 0 (w): ${error}\n  points done: " at)
if(at EQUAL -1)
  message(FATAL_ERROR "status lost part of the failure line:\n${out}")
endif()
