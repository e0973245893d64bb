# CTest script: run `eco_chip ARGS`, which must fail with exit 1
# and an `eco_chip:` error message on stderr. The usage banner
# must follow the message exactly when EXPECT_USAGE is ON (an
# argument error) and must be absent when it is OFF (a runtime
# error).
#
# Variables: APP (eco_chip binary), ARGS (;-separated argument
#            list), EXPECT_USAGE (ON/OFF).

if(NOT APP OR NOT DEFINED ARGS OR NOT DEFINED EXPECT_USAGE)
    message(FATAL_ERROR "usage: cmake -DAPP=... -DARGS=... -DEXPECT_USAGE=ON|OFF -P cli_error_usage.cmake")
endif()

execute_process(
    COMMAND "${APP}" ${ARGS}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "eco_chip ${ARGS} exited ${rc}, expected 1")
endif()
if(NOT err MATCHES "^eco_chip: ")
    message(FATAL_ERROR "no eco_chip: error message on stderr:\n${err}")
endif()
string(FIND "${out}${err}" "usage:" usage_at)
if(EXPECT_USAGE AND usage_at EQUAL -1)
    message(FATAL_ERROR "argument error printed no usage banner:\n${err}")
endif()
if(NOT EXPECT_USAGE AND NOT usage_at EQUAL -1)
    message(FATAL_ERROR "runtime error printed the usage banner:\n${err}")
endif()

message(STATUS "eco_chip ${ARGS}: exit 1, usage banner ${EXPECT_USAGE}")
