# Event-count gate, run by ctest as `selftime_event_counts`:
#
#   cmake -DSELFTIME=<selftime binary> -DOUT=<artifact path>
#         -DEXPECT="<profile>=<events>;<profile>=<events>;..."
#         -P tools/event_count_gate.cmake
#
# Runs `selftime --quick` and requires each named profile's fired
# event count to equal the expected number exactly. Event counts are
# a function of the model and its seed only, never of the host, so
# this gate holds on any machine. A change that moves a count must
# update the expected number in tests/CMakeLists.txt and record the
# old and new counts, and why they moved, in CHANGES.md.

cmake_minimum_required(VERSION 3.19)

foreach(_var SELFTIME OUT EXPECT)
    if(NOT DEFINED ${_var})
        message(FATAL_ERROR "event_count_gate: pass -D${_var}=...")
    endif()
endforeach()

file(REMOVE "${OUT}")
execute_process(COMMAND "${SELFTIME}" --quick --json "${OUT}"
                RESULT_VARIABLE _rc OUTPUT_QUIET)
if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "event_count_gate: selftime exited ${_rc}")
endif()
file(READ "${OUT}" _doc)
string(JSON _rows LENGTH "${_doc}" rows)
math(EXPR _last "${_rows} - 1")

set(_failed FALSE)
foreach(_pair IN LISTS EXPECT)
    string(REPLACE "=" ";" _pair "${_pair}")
    list(GET _pair 0 _profile)
    list(GET _pair 1 _expected)
    set(_got "")
    foreach(_i RANGE ${_last})
        string(JSON _name GET "${_doc}" rows ${_i} profile)
        if(_name STREQUAL _profile)
            string(JSON _got GET "${_doc}" rows ${_i} events)
        endif()
    endforeach()
    if(_got STREQUAL _expected)
        message(STATUS "${_profile}: ${_got} events")
    else()
        message(SEND_ERROR
                "${_profile}: ${_got} events, expected ${_expected}")
        set(_failed TRUE)
    endif()
endforeach()
if(_failed)
    message(FATAL_ERROR "event_count_gate: event counts moved")
endif()
