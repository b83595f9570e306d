# Run a command and fail unless it exits with status EXPECT_EXIT:
#
#   cmake -DEXPECT_EXIT=2 [-DWORK_DIR=<dir>] -P expect_exit.cmake
#         <program> [args...]
#
# ctest only tells zero from nonzero (WILL_FAIL); this pins the status.
# The command runs in WORK_DIR, by default the current directory.
if(NOT DEFINED EXPECT_EXIT)
    message(FATAL_ERROR "expect_exit.cmake: set -DEXPECT_EXIT=<status>")
endif()
if(NOT DEFINED WORK_DIR)
    set(WORK_DIR ".")
endif()

# Everything after the script path is the command.
set(_command "")
set(_state "options")
math(EXPR _last "${CMAKE_ARGC} - 1")
foreach(_i RANGE 1 ${_last})
    set(_arg "${CMAKE_ARGV${_i}}")
    if(_state STREQUAL "command")
        list(APPEND _command "${_arg}")
    elseif(_state STREQUAL "script")
        set(_state "command")
    elseif(_arg STREQUAL "-P")
        set(_state "script")
    endif()
endforeach()
if(NOT _command)
    message(FATAL_ERROR "expect_exit.cmake: no command given")
endif()

execute_process(COMMAND ${_command}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE _status
    OUTPUT_VARIABLE _stdout
    ERROR_VARIABLE _stderr)
if(NOT _status STREQUAL "${EXPECT_EXIT}")
    message(FATAL_ERROR "expected exit status ${EXPECT_EXIT}, got "
        "${_status}\nstdout:\n${_stdout}\nstderr:\n${_stderr}")
endif()
message(STATUS "exit status ${_status} as expected; stderr: ${_stderr}")
