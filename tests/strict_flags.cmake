# Runs every command-line front end named in BINARIES ('|'-separated
# paths) with a flag none of them reads, and fails unless each exits 1
# with a message naming the flag (CliFlags::rejectUnread).
#
#   cmake -DBINARIES="a|b" -P strict_flags.cmake
string(REPLACE "|" ";" binaries "${BINARIES}")
foreach(bin IN LISTS binaries)
    execute_process(COMMAND ${bin} --no-such-flag
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err
                    TIMEOUT 60)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR "${bin} --no-such-flag exited '${rc}', not 1")
    endif()
    string(FIND "${err}" "fatal: unknown flag --no-such-flag" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR
                "${bin} --no-such-flag did not name the flag:\n${err}")
    endif()
endforeach()
list(LENGTH binaries n)
message(STATUS "${n} front ends refuse --no-such-flag")
