# Golden checks for the figure benches, run as CTests.
#   -DBENCH=<exe> -DGOLDEN=<file> -DWORKDIR=<dir>: run BENCH at 1 and at 4
#     sweep workers; each stdout must equal GOLDEN byte for byte.
#   -DBENCH_DIR=<dir> -DNAMES=<a,b,...> -DFLAG=<flag>: each named bench,
#     given only FLAG, must exit 2 with an error that names FLAG.
#   ... -DVALUES=<v1,v2,...>: each named bench, given FLAG v for each
#     value v, must exit 2 with an error that names FLAG.

function(expect_usage_error name expect)
  execute_process(COMMAND ${BENCH_DIR}/${name} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "${expect}" at)
  if(NOT rc EQUAL 2 OR at EQUAL -1)
    list(JOIN ARGN " " args)
    message(FATAL_ERROR "${name} ${args}: exit ${rc}, expected 2 and an "
                        "error containing \"${expect}\". stderr:\n${err}")
  endif()
endfunction()

if(DEFINED FLAG)
  string(REPLACE "," ";" names "${NAMES}")
  string(REPLACE "," ";" values "${VALUES}")
  foreach(name IN LISTS names)
    if(DEFINED VALUES)
      foreach(value IN LISTS values)
        expect_usage_error(${name} "${FLAG} wants" ${FLAG} ${value})
      endforeach()
    else()
      expect_usage_error(${name} "unknown flag '${FLAG}'" ${FLAG})
    endif()
  endforeach()
  return()
endif()

get_filename_component(name ${BENCH} NAME)
foreach(threads 1 4)
  set(actual ${WORKDIR}/${name}.t${threads}.txt)
  execute_process(COMMAND ${BENCH} --sweep-threads ${threads}
                  RESULT_VARIABLE rc OUTPUT_FILE ${actual} ERROR_VARIABLE err)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${actual}
                  RESULT_VARIABLE differs)
  if(NOT rc EQUAL 0 OR NOT differs EQUAL 0)
    execute_process(COMMAND diff -u ${GOLDEN} ${actual})
    message(FATAL_ERROR "${name} --sweep-threads ${threads}: exit "
                        "${rc}; stdout ${actual} vs golden ${GOLDEN}\n${err}")
  endif()
endforeach()
