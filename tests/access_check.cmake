# Check that C++ access control guards a member:
#
#   cmake -DCXX=<compiler> -DINCLUDE=<dir> -DSOURCE=<file> [-DMEMBER=<name>]
#         -P access_check.cmake
#
# SOURCE is compiled with -fsyntax-only, so the check builds nothing and
# writes nothing. Without MEMBER it must compile: the legal accessor.
# With MEMBER it is compiled with -DGENESYS_ACCESS_VIOLATION and must
# fail on the access diagnostic for MEMBER (GCC: "is private within this
# context", Clang: "is a private member of"); a clean compile or any
# other error fails the check.
set(args -std=c++20 -fsyntax-only -I${INCLUDE} ${SOURCE})
if(DEFINED MEMBER)
    list(PREPEND args -DGENESYS_ACCESS_VIOLATION)
endif()
execute_process(COMMAND ${CXX} ${args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT DEFINED MEMBER)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${SOURCE} does not compile:\n${out}")
    endif()
    return()
endif()
if(rc EQUAL 0)
    message(FATAL_ERROR "${SOURCE} reached ${MEMBER} and compiled")
endif()
# The quotes around the member name differ by compiler and locale.
if(NOT out MATCHES "${MEMBER}[^ \n]* is (a )?private")
    message(FATAL_ERROR
            "${SOURCE} failed, but not on access to ${MEMBER}:\n${out}")
endif()
