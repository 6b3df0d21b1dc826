# Docs-drift guard, run by ctest as `docs_drift_guard`:
#
#   cmake -DREPO_ROOT=<repo> -P tools/docs_drift.cmake
#
# Every bench binary (bench/*.cc) must be mentioned by name in
# EXPERIMENTS.md, so an experiment can't be added (or renamed)
# without its documentation moving with it.

cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED REPO_ROOT)
    message(FATAL_ERROR "docs_drift: pass -DREPO_ROOT=<repo root>")
endif()

set(_experiments "${REPO_ROOT}/EXPERIMENTS.md")
if(NOT EXISTS "${_experiments}")
    message(FATAL_ERROR "docs_drift: ${_experiments} is missing")
endif()
file(READ "${_experiments}" _doc)

file(GLOB _benches "${REPO_ROOT}/bench/*.cc")
set(_missing "")
foreach(_src IN LISTS _benches)
    get_filename_component(_name "${_src}" NAME_WE)
    string(FIND "${_doc}" "${_name}" _pos)
    if(_pos EQUAL -1)
        list(APPEND _missing "${_name}")
    endif()
endforeach()

if(_missing)
    list(JOIN _missing ", " _missing_list)
    message(FATAL_ERROR
        "docs_drift: bench(es) not documented in EXPERIMENTS.md: "
        "${_missing_list}. Add an entry for each (name, figure/claim "
        "it reproduces, how to run it).")
endif()

list(LENGTH _benches _count)
message(STATUS
    "docs_drift: all ${_count} bench sources documented in "
    "EXPERIMENTS.md")
