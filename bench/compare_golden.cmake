# Runs BIN --jobs=4 at its default seed and byte-compares its stdout with
# GOLDEN; the repro ctest label runs it once per eval binary:
#   cmake -DBIN=<binary> -DGOLDEN=<golden.txt> -DOUT=<stdout copy> -P compare_golden.cmake
execute_process(COMMAND ${BIN} --jobs=4 OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
