# CTest script: the json::Value DOM is read-only outside src/json/.
# Every JSON document src/ and apps/ emit goes through a
# StreamWriter, so no file there may build a tree with
# Value::makeObject or Value::makeArray. Fails listing each match.
#
# Variables: SOURCE_DIR (repository root).

if(NOT SOURCE_DIR)
    message(FATAL_ERROR "usage: cmake -DSOURCE_DIR=... -P dom_is_read_only.cmake")
endif()

file(GLOB_RECURSE sources
    "${SOURCE_DIR}/src/*.h" "${SOURCE_DIR}/src/*.cpp"
    "${SOURCE_DIR}/apps/*.h" "${SOURCE_DIR}/apps/*.cpp")
set(matches "")
foreach(path IN LISTS sources)
    file(RELATIVE_PATH rel "${SOURCE_DIR}" "${path}")
    if(rel MATCHES "^src/json/")
        continue()
    endif()
    file(STRINGS "${path}" lines REGEX "Value::make(Object|Array)")
    foreach(line IN LISTS lines)
        string(STRIP "${line}" line)
        string(APPEND matches "\n  ${rel}: ${line}")
    endforeach()
endforeach()

if(matches)
    message(FATAL_ERROR
        "json::Value trees built outside src/json/ (emit through "
        "a StreamWriter instead):${matches}")
endif()
list(LENGTH sources count)
message(STATUS "DOM is read-only in ${count} src/ and apps/ files")
