# Run a program and compare its stdout with a golden file, byte for byte.
#
#   cmake -DPROGRAM=<exe> -DGOLDEN=<file> -DACTUAL=<file> -P compare_output.cmake
#
# On a mismatch the actual output is left in ACTUAL for diffing.
execute_process(COMMAND ${PROGRAM}
                OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${PROGRAM} exited with ${rc}")
endif()
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
    file(WRITE ${ACTUAL} "${out}")
    message(FATAL_ERROR
            "${PROGRAM} output differs from ${GOLDEN}; actual in ${ACTUAL}")
endif()
