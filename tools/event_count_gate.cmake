# Event-count gate, run by ctest as `selftime_event_counts`:
#
#   cmake -DSELFTIME=<selftime binary> -DOUT=<artifact path>
#         -DEXPECT="<profile>=<events>;<profile>.<category>=<events>;..."
#         -P tools/event_count_gate.cmake
#
# Runs `selftime --quick` and requires each named profile's fired
# event count to equal the expected number exactly. A key
# `<profile>.<category>` pins the profile's fired events of one
# sim::EventCategory instead (the `events_<category>` column, e.g.
# `fig10.fabric`), so a per-site cost such as "one delivery event per
# packet" is gated too. Event counts are
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
    list(GET _pair 0 _key)
    list(GET _pair 1 _expected)
    # "fig10" reads column `events`, "fig10.fabric" `events_fabric`.
    string(REPLACE "." ";" _parts "${_key}")
    list(GET _parts 0 _profile)
    set(_column events)
    list(LENGTH _parts _nparts)
    if(_nparts GREATER 1)
        list(GET _parts 1 _category)
        set(_column events_${_category})
    endif()
    set(_got "")
    foreach(_i RANGE ${_last})
        string(JSON _name GET "${_doc}" rows ${_i} profile)
        if(_name STREQUAL _profile)
            string(JSON _got ERROR_VARIABLE _err
                   GET "${_doc}" rows ${_i} ${_column})
            if(_err)
                set(_got "no ${_column} column:")
            endif()
        endif()
    endforeach()
    if(_got STREQUAL _expected)
        message(STATUS "${_key}: ${_got} events")
    else()
        message(SEND_ERROR "${_key}: ${_got} events, expected ${_expected}")
        set(_failed TRUE)
    endif()
endforeach()
if(_failed)
    message(FATAL_ERROR "event_count_gate: event counts moved")
endif()
