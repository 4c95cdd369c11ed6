# Example argument check, run as the example.bad_args CTest.
#   -DBIN_DIR=<dir>: for each malformed or out-of-range argument list below,
#     the example must print its usage line to stderr and exit 2.

set(failures "")
foreach(case "lower_bound_explorer 3 2" "lower_bound_explorer abc"
             "quickstart 0" "quantum_advantage 1024 0" "gadget_tour 10 1"
             "chsh_game abc")
  separate_arguments(args UNIX_COMMAND "${case}")
  list(POP_FRONT args name)
  execute_process(COMMAND ${BIN_DIR}/${name} ${args}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err
                  TIMEOUT 60)
  string(FIND "${err}" "usage:" at)
  if(NOT rc STREQUAL "2" OR at EQUAL -1)
    string(APPEND failures "  ${case}: exit ${rc}; stderr: ${err}\n")
  endif()
endforeach()
if(failures)
  message(FATAL_ERROR "the examples must exit 2 with their usage line on a "
                      "bad argument:\n${failures}")
endif()
