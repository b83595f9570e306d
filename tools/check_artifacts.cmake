# Run a command in a fresh directory, pin its exit status, then validate
# the result files it wrote there with tools/pdpreport.py check:
#
#   cmake -DEXPECT_EXIT=<status> -DWORK_DIR=<dir> -DPYTHON=<python3>
#         -DARTIFACTS=<glob>[,<glob>...]
#         [-DEXPECT_OUTPUT=<regex>[,<regex>...]]
#         -P check_artifacts.cmake <program> [args...]
#
# Each glob, relative to WORK_DIR, must match at least one file, and
# `pdpreport.py check` must accept every match.  Each EXPECT_OUTPUT regex
# must match check's report, so a run that wrote well-formed but empty
# files (no service section, no sampled span) cannot pass.
foreach(_var WORK_DIR PYTHON ARTIFACTS)
    if(NOT DEFINED ${_var})
        message(FATAL_ERROR "check_artifacts.cmake: set -D${_var}=...")
    endif()
endforeach()

# A fresh directory, so a file the run failed to write cannot be stood
# in for by one a previous run left behind.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
include(${CMAKE_CURRENT_LIST_DIR}/expect_exit.cmake)

string(REPLACE "," ";" _globs "${ARTIFACTS}")
set(_files "")
foreach(_glob IN LISTS _globs)
    file(GLOB _matches "${WORK_DIR}/${_glob}")
    if(NOT _matches)
        message(FATAL_ERROR "the run wrote no ${_glob} into ${WORK_DIR}")
    endif()
    list(APPEND _files ${_matches})
endforeach()

execute_process(COMMAND "${PYTHON}"
        "${CMAKE_CURRENT_LIST_DIR}/pdpreport.py" check ${_files}
    RESULT_VARIABLE _status
    OUTPUT_VARIABLE _stdout
    ERROR_VARIABLE _stderr)
if(NOT _status EQUAL 0)
    message(FATAL_ERROR "pdpreport.py check failed (${_status}):\n"
        "${_stdout}${_stderr}")
endif()
string(REPLACE "," ";" _expected "${EXPECT_OUTPUT}")
foreach(_regex IN LISTS _expected)
    if(NOT _stdout MATCHES "${_regex}")
        message(FATAL_ERROR "pdpreport.py check reported nothing matching "
            "'${_regex}':\n${_stdout}")
    endif()
endforeach()
message(STATUS "${_stdout}")
