# Golden check for one built-in scenario, run as
#   cmake -DESCHED=<esched binary> -DNAME=<builtin> -DGOLDEN_DIR=<tests/golden>
#         -DWORK_DIR=<scratch dir> -P check_golden.cmake
#
# Runs `esched run <builtin> --threads 2 --cache-dir cache` twice in a fresh
# WORK_DIR: cold (empty cache), then warm. Each pass must reproduce
# <builtin>.csv byte-for-byte and print <builtin>.txt, which is the run's
# stdout minus its volatile "points: ... | wall: ... s" trailer. The warm
# trailer must show every point served from cache, with each point the
# cold run solved coming back as a disk hit.
foreach(var ESCHED NAME GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(trailer_regex
    "\npoints: ([0-9]+) \\(solved ([0-9]+), cache hits ([0-9]+)(, disk hits ([0-9]+))?\\)[^\n]*\n")

foreach(pass cold warm)
  execute_process(
    COMMAND "${ESCHED}" run "${NAME}" --threads 2 --cache-dir cache
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${pass} run of '${NAME}' failed (${rc}):\n${err}")
  endif()

  if(NOT out MATCHES "${trailer_regex}")
    message(FATAL_ERROR "${pass} run of '${NAME}': no stats trailer in:\n${out}")
  endif()
  set(points "${CMAKE_MATCH_1}")
  set(solved "${CMAKE_MATCH_2}")
  set(cache_hits "${CMAKE_MATCH_3}")
  set(disk_hits "${CMAKE_MATCH_5}")
  if(disk_hits STREQUAL "")
    set(disk_hits 0)
  endif()
  if(pass STREQUAL "cold")
    set(cold_solved "${solved}")
    if(NOT disk_hits EQUAL 0 OR solved EQUAL 0)
      message(FATAL_ERROR "cold run of '${NAME}' was not cold: "
                          "solved ${solved}, disk hits ${disk_hits}")
    endif()
  elseif(NOT solved EQUAL 0 OR NOT cache_hits EQUAL points OR
         NOT disk_hits EQUAL cold_solved)
    message(FATAL_ERROR "warm run of '${NAME}': expected solved 0, cache hits "
                        "${points}, disk hits ${cold_solved}; got solved "
                        "${solved}, cache hits ${cache_hits}, disk hits "
                        "${disk_hits}")
  endif()

  string(REGEX REPLACE "${trailer_regex}" "\n" view "${out}")
  file(WRITE "${WORK_DIR}/${pass}.txt" "${view}")
  foreach(ext txt csv)
    if(ext STREQUAL "txt")
      set(actual "${WORK_DIR}/${pass}.txt")
    else()
      set(actual "${WORK_DIR}/${NAME}.csv")
    endif()
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E compare_files
              "${GOLDEN_DIR}/${NAME}.${ext}" "${actual}"
      RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      message(FATAL_ERROR "${pass} run of '${NAME}': ${actual} differs from "
                          "${GOLDEN_DIR}/${NAME}.${ext}")
    endif()
  endforeach()
endforeach()
