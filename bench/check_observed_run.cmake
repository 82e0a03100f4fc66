# Run BENCH with --stats/--trace at CG_THREADS=1 and CG_THREADS=4 and
# fail unless both runs wrote byte-identical files: the harness hands
# the output paths to sweep point 0 whatever the thread count.
foreach(threads 1 4)
    set(ENV{CG_THREADS} ${threads})
    execute_process(COMMAND ${BENCH}
            --stats ${OUT}_t${threads}_stats.txt
            --trace ${OUT}_t${threads}_trace.json
        OUTPUT_QUIET RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${BENCH} at CG_THREADS=${threads} exited ${rc}")
    endif()
endforeach()
foreach(file stats.txt trace.json)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
        ${OUT}_t1_${file} ${OUT}_t4_${file} RESULT_VARIABLE differs)
    if(differs)
        message(FATAL_ERROR
            "${file} differs between CG_THREADS=1 and CG_THREADS=4")
    endif()
endforeach()
