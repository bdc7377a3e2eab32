# Runs BIN --jobs=4 at its default seed and byte-compares its stdout with
# GOLDEN; the repro ctest label runs it once per eval binary:
#   cmake -DBIN=<binary> -DGOLDEN=<golden.txt> -DOUT=<stdout copy> -P compare_golden.cmake
# With -DUPDATE=ON it overwrites GOLDEN with that stdout instead (the
# update_golden target), so a change that moves a number shows as a diff.
execute_process(COMMAND ${BIN} --jobs=4 OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited ${rc}")
endif()
if(UPDATE)
  execute_process(COMMAND ${CMAKE_COMMAND} -E copy ${OUT} ${GOLDEN})
  return()
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
