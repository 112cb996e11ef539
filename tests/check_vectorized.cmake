# Vectorization gate for the FD kernels (run with cmake -P).
#
# Compiles SOURCE with the project's compile flags (FLAGS, one
# space-separated string) plus -fopt-info-vec-optimized-missed, and fails
# unless every loop that follows a `#pragma GCC ivdep` line
#   * is reported "loop vectorized" at least once, and
#   * has no "couldn't vectorize loop" report anywhere in its body (a
#     template instantiation that fails must not hide behind one that
#     vectorizes).
# EXPECT_LOOPS pins how many such loops SOURCE holds, so deleting a pragma
# cannot shrink the gate silently.
#
#   cmake -DCXX=g++ "-DFLAGS=-O2 -g ..." -DINCLUDE=<src> -DSOURCE=<file>
#         -DWORK=<work dir> -DEXPECT_LOOPS=<n> -P check_vectorized.cmake

# Policies matter here: line numbers depend on list() keeping empty lines.
cmake_minimum_required(VERSION 3.16)

foreach(var CXX FLAGS INCLUDE SOURCE WORK EXPECT_LOOPS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_vectorized: -D${var}=... is required")
  endif()
endforeach()

separate_arguments(flags UNIX_COMMAND "${FLAGS}")
file(MAKE_DIRECTORY "${WORK}")
set(report "${WORK}/vec-report.txt")
file(REMOVE "${report}")
execute_process(
  COMMAND "${CXX}" ${flags} "-I${INCLUDE}"
          "-fopt-info-vec-optimized-missed=${report}"
          -c "${SOURCE}" -o "${WORK}/kernels.o"
  RESULT_VARIABLE rc
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "check_vectorized: compiling ${SOURCE} failed:\n${err}")
endif()

# Split a file into a list of lines. Semicolons and brackets are masked
# first so CMake's list syntax cannot merge or split lines.
function(read_lines path out)
  file(READ "${path}" text)
  string(REPLACE ";" "<sc>" text "${text}")
  string(REPLACE "[" "<lb>" text "${text}")
  string(REPLACE "]" "<rb>" text "${text}")
  string(REPLACE "\n" ";" text "${text}")
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

read_lines("${SOURCE}" src)
read_lines("${report}" rep)
get_filename_component(base "${SOURCE}" NAME)
string(REPLACE "." "\\." base_re "${base}")

# Report lines per source line: vectorized loops and failed loops.
set(vectorized "")
set(failed "")
foreach(line IN LISTS rep)
  if(line MATCHES "${base_re}:([0-9]+):[0-9]+: optimized: loop vectorized")
    list(APPEND vectorized "${CMAKE_MATCH_1}")
  elseif(line MATCHES "${base_re}:([0-9]+):[0-9]+: missed: couldn't vectorize loop")
    list(APPEND failed "${CMAKE_MATCH_1}")
  endif()
endforeach()

list(LENGTH src count)
set(loops 0)
set(problems "")
set(idx 0)
while(idx LESS count)
  list(GET src ${idx} line)
  if(line MATCHES "^[ \t]*#pragma GCC ivdep")
    math(EXPR loops "${loops} + 1")
    # 1-based number of the loop line, then the body's closing brace: the
    # first later line indented exactly like the loop that starts with '}'.
    math(EXPR first "${idx} + 2")
    math(EXPR at "${idx} + 1")
    list(GET src ${at} loopLine)
    string(REGEX MATCH "^[ \t]*" indent "${loopLine}")
    set(last ${first})
    while(at LESS count)
      list(GET src ${at} bodyLine)
      if(bodyLine MATCHES "^${indent}}")
        math(EXPR last "${at} + 1")
        break()
      endif()
      math(EXPR at "${at} + 1")
    endwhile()
    list(FIND vectorized "${first}" hit)
    if(hit EQUAL -1)
      list(APPEND problems "${base}:${first}: row loop not vectorized")
    endif()
    foreach(bad IN LISTS failed)
      if(NOT bad LESS first AND NOT bad GREATER last)
        list(APPEND problems
             "${base}:${bad}: couldn't vectorize (loop at line ${first})")
      endif()
    endforeach()
  endif()
  math(EXPR idx "${idx} + 1")
endwhile()

if(NOT loops EQUAL EXPECT_LOOPS)
  list(APPEND problems
       "found ${loops} `#pragma GCC ivdep` row loops, expected ${EXPECT_LOOPS}")
endif()
if(problems)
  list(JOIN problems "\n  " msg)
  message(FATAL_ERROR "check_vectorized: FAILED\n  ${msg}\n"
                      "(full report: ${report})")
endif()
message(STATUS "check_vectorized: all ${loops} row loops in ${base} vectorized")
