# Service flag check, run as the service.bad_flags CTest.
#   -DSERVICED=<exe> -DCLIENT=<exe> -DSOCKET=<path>: for each malformed or
#     out-of-range numeric flag value below, the binary must print its
#     usage line and exit 2: the daemon without starting, the client
#     without connecting (nothing listens on SOCKET). A daemon that does
#     start is killed by the timeout and fails the check.

function(expect_usage exe)
  execute_process(COMMAND ${exe} --socket ${SOCKET} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err
                  TIMEOUT 10)
  string(FIND "${err}" "usage:" at)
  if(NOT rc STREQUAL "2" OR at EQUAL -1)
    get_filename_component(name ${exe} NAME)
    list(JOIN ARGN " " args)
    set(failures "${failures}  ${name} ${args}: exit ${rc}; stderr: ${err}\n"
        PARENT_SCOPE)
  endif()
endfunction()

set(failures "")
foreach(case "--workers -1" "--workers abc" "--queue-capacity 0"
             "--cache-mb -1")
  separate_arguments(args UNIX_COMMAND "${case}")
  expect_usage(${SERVICED} ${args})
endforeach()
foreach(case "submit --topology path --algo census --nodes 4294967360"
             "submit --topology path --algo census --nodes 64abc"
             "submit --topology path --algo census --nodes -1"
             "poll --job x")
  separate_arguments(args UNIX_COMMAND "${case}")
  expect_usage(${CLIENT} ${args})
endforeach()
if(failures)
  message(FATAL_ERROR "qdc_serviced and qdc_client must exit 2 with their "
                      "usage line on a bad flag value:\n${failures}")
endif()
