# Example output check, run as a CTest.
#   -DEXE=<exe> -DARGS=<a;b;...> -DEXPECT=<s1;s2;...>: EXE ARGS must exit 0
#     and print every string of EXPECT on stdout.

execute_process(COMMAND ${EXE} ${ARGS} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} ${ARGS}: exit ${rc}\n${out}${err}")
endif()
foreach(expect IN LISTS EXPECT)
  string(FIND "${out}" "${expect}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${EXE} ${ARGS}: no \"${expect}\" in stdout:\n${out}")
  endif()
endforeach()
