# The benchmark harness, defined in the repository's top-level directory
# by hook.cmake, so it inherits that build's flags instead of restating
# them.
string(TOUPPER "${CMAKE_BUILD_TYPE}" _perfbench_bt)
get_directory_property(_perfbench_opts COMPILE_OPTIONS)
string(REPLACE ";" " " _perfbench_opts "${_perfbench_opts}")
string(STRIP "${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${_perfbench_bt}} ${_perfbench_opts}"
       _perfbench_flags)

add_executable(perfbench
  ${PERFBENCH_DIR}/harness/main.cpp
  ${PERFBENCH_DIR}/harness/common.cpp
  ${PERFBENCH_DIR}/harness/harness.cpp
  ${PERFBENCH_DIR}/harness/probes.cpp
  ${PERFBENCH_DIR}/harness/m8.cpp
  ${PERFBENCH_DIR}/harness/wave.cpp
  ${PERFBENCH_DIR}/harness/hazard.cpp)
target_compile_definitions(perfbench PRIVATE
  PERFBENCH_CXX_FLAGS="${_perfbench_flags}"
  PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
target_link_libraries(perfbench PRIVATE
  awp_cycle awp_serve awp_sched awp_fabric awp_analysis awp_workflow
  awp_source awp_rupture awp_core awp_mesh awp_grid awp_health awp_io
  awp_vmodel awp_vcluster awp_telemetry awp_fault awp_util)
