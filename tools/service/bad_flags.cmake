# qdc_serviced flag check, run as the service.bad_flags CTest.
#   -DSERVICED=<exe> -DSOCKET=<path>: for each malformed or out-of-range
#     numeric flag value below, the daemon must print its usage line and
#     exit 2 without starting. A daemon that does start is killed by the
#     timeout and fails the check.

set(failures "")
foreach(case "--workers -1" "--workers abc" "--queue-capacity 0"
             "--cache-mb -1")
  separate_arguments(args UNIX_COMMAND "${case}")
  execute_process(COMMAND ${SERVICED} --socket ${SOCKET} ${args}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err
                  TIMEOUT 10)
  string(FIND "${err}" "usage:" at)
  if(NOT rc STREQUAL "2" OR at EQUAL -1)
    string(APPEND failures "  ${case}: exit ${rc}; stderr: ${err}\n")
  endif()
endforeach()
if(failures)
  message(FATAL_ERROR "qdc_serviced must exit 2 with its usage line on a bad "
                      "flag value:\n${failures}")
endif()
