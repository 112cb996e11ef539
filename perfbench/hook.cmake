# Configure-time hook that adds the benchmark harness to the repository's
# own build, so the libraries and the harness compile with exactly the
# compile options, Release flags and language standard the tier-1 tests
# use. run.py passes it as -DCMAKE_PROJECT_INCLUDE=<this file>; the
# harness target is defined once the top-level list has finished.
# Deferred arguments are expanded when the call runs, so keep the path in
# a variable of the top-level scope.
set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER CALL include ${PERFBENCH_DIR}/perfbench.cmake)
