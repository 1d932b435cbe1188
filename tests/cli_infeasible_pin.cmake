# Runs `giph_cli robustness` on a generated 4-task graph whose task 1 is
# pinned to device 5 of a 2-device network, and checks the CLI fails loudly:
# exit code 1 and an error naming the task, not a crash.
# Usage (ctest registers the case in tests/CMakeLists.txt):
#   cmake -DCLI=<giph_cli> -DWORK=<scratch dir> -P cli_infeasible_pin.cmake
file(REMOVE_RECURSE "${WORK}")
execute_process(
  COMMAND "${CLI}" generate --out "${WORK}" --graphs 1 --networks 1 --tasks 4
          --devices 2 --seed 1
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "giph_cli generate failed (exit ${rc})")
endif()
# A task line is "<compute> <hw mask> <pinned device> <name>".
file(READ "${WORK}/graph_0.txt" graph)
string(REGEX REPLACE "\n([^ \n]+ [^ \n]+) -1 t1\n" "\n\\1 5 t1\n" pinned "${graph}")
if(pinned STREQUAL graph)
  message(FATAL_ERROR "task 1's line not found in ${WORK}/graph_0.txt:\n${graph}")
endif()
file(WRITE "${WORK}/graph_0.txt" "${pinned}")
execute_process(
  COMMAND "${CLI}" robustness --graph "${WORK}/graph_0.txt"
          --network "${WORK}/network_0.txt"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected exit 1, got ${rc}\n${out}${err}")
endif()
set(EXPECT "error: heft_schedule: task 1 has no feasible device")
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "error does not match '${EXPECT}':\n${err}")
endif()
