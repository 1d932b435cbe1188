# Runs `giph_cli train` with one bad flag on a tiny generated dataset and
# checks the CLI fails loudly: exit code 1 and an error naming the flag.
# EXPECT is the error pattern; it defaults to the malformed-number message.
# Usage (ctest registers the cases in tests/CMakeLists.txt):
#   cmake -DCLI=<giph_cli> -DWORK=<scratch dir> -DFLAG=<name> -DVALUE=<bad>
#         [-DEXPECT=<regex>] -P cli_bad_number.cmake
if(NOT DEFINED EXPECT)
  set(EXPECT "error: --${FLAG}: ")
endif()
file(REMOVE_RECURSE "${WORK}")
execute_process(
  COMMAND "${CLI}" generate --out "${WORK}" --graphs 2 --networks 1 --tasks 4
          --devices 2 --seed 1
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "giph_cli generate failed (exit ${rc})")
endif()
# The bad flag comes last, so a malformed number overrides the --episodes 1
# that keeps a regression (a flag parsed leniently) from training for long.
execute_process(
  COMMAND "${CLI}" train --data "${WORK}" --model "${WORK}/model.txt" --episodes 1
          --${FLAG} "${VALUE}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "expected exit 1 for --${FLAG} ${VALUE}, got ${rc}\n${out}${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "error does not match '${EXPECT}':\n${err}")
endif()
