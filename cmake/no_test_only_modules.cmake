# CTest script: every src/ header is reached by the product. A
# header that no file under src/ or apps/ includes, apart from its
# own .cpp, is a module only tests call -- a second path to delete
# or to wire in. Fails listing each such header.
#
# Variables: SOURCE_DIR (repository root).

cmake_policy(VERSION 3.20)

if(NOT SOURCE_DIR)
    message(FATAL_ERROR "usage: cmake -DSOURCE_DIR=... -P no_test_only_modules.cmake")
endif()

# Kept on purpose, one reason each.
set(kept
    # The paper's Sec. V-C chiplet-reuse model; shown by
    # examples/chiplet_reuse_portfolio.cpp.
    "core/portfolio.h"
    # NoC performance extension; measured by
    # bench/bench_ext_noc_performance.cpp.
    "noc/network_model.h"
    # CSV emitter the figure benches print through bench_util.
    "support/csv.h")

file(GLOB_RECURSE headers "${SOURCE_DIR}/src/*.h")
file(GLOB_RECURSE sources
    "${SOURCE_DIR}/src/*.h" "${SOURCE_DIR}/src/*.cpp"
    "${SOURCE_DIR}/apps/*.h" "${SOURCE_DIR}/apps/*.cpp")

# Headers some file under src/ or apps/ includes, not counting a
# header's own .cpp.
set(reached "")
foreach(path IN LISTS sources)
    file(RELATIVE_PATH rel "${SOURCE_DIR}" "${path}")
    file(STRINGS "${path}" lines REGEX "^[ \t]*#[ \t]*include[ \t]+\"")
    foreach(line IN LISTS lines)
        string(REGEX REPLACE "^[ \t]*#[ \t]*include[ \t]+\"([^\"]+)\".*$" "\\1" included "${line}")
        string(REGEX REPLACE "\\.h$" ".cpp" own_source "src/${included}")
        if(NOT rel STREQUAL own_source)
            list(APPEND reached "${included}")
        endif()
    endforeach()
endforeach()

set(orphans "")
foreach(path IN LISTS headers)
    file(RELATIVE_PATH header "${SOURCE_DIR}/src" "${path}")
    if(NOT header IN_LIST kept AND NOT header IN_LIST reached)
        string(APPEND orphans "\n  src/${header}")
    endif()
endforeach()

if(orphans)
    message(FATAL_ERROR
        "src/ headers no file under src/ or apps/ includes (only "
        "tests reach them; delete the module or keep it in this "
        "script with a reason):${orphans}")
endif()
list(LENGTH headers count)
message(STATUS "all ${count} src/ headers are reached from src/ or apps/")
