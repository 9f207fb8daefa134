# Runs COMMAND ('|'-separated argv) and fails unless it exits 1 with a
# fatal() message that contains every entry of EXPECT ('|'-separated).
#
#   cmake -DCOMMAND="bin|--flag" -DEXPECT="a|b" -P expect_fatal.cmake
string(REPLACE "|" ";" command "${COMMAND}")
string(REPLACE "|" ";" expected "${EXPECT}")
execute_process(COMMAND ${command}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "'${COMMAND}' exited '${rc}', not 1:\n${out}${err}")
endif()
string(FIND "${err}" "fatal: " pos)
if(pos EQUAL -1)
    message(FATAL_ERROR "'${COMMAND}' printed no fatal():\n${err}")
endif()
foreach(text IN LISTS expected)
    string(FIND "${err}" "${text}" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR "'${COMMAND}' did not name '${text}':\n${err}")
    endif()
endforeach()
