# Starts giph_serve with one malformed numeric flag on an empty stdin and
# checks the daemon refuses to start: exit code 2 and an error naming the
# flag and the value. A regression (a value parsed leniently or clamped)
# serves the empty stream and exits 0 instead.
# Usage (ctest registers the cases in tests/CMakeLists.txt):
#   cmake -DSERVE=<giph_serve> -DWORK=<scratch dir> -DFLAG=<name> -DVALUE=<bad>
#         -P serve_bad_number.cmake
file(REMOVE_RECURSE "${WORK}")
file(WRITE "${WORK}/stdin" "")
execute_process(
  COMMAND "${SERVE}" --${FLAG} "${VALUE}"
  INPUT_FILE "${WORK}/stdin"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2 for --${FLAG} ${VALUE}, got ${rc}\n${out}${err}")
endif()
string(FIND "${err}" "--${FLAG}: expected an integer" at_flag)
string(FIND "${err}" "got '${VALUE}'" at_value)
if(at_flag LESS 0 OR at_value LESS 0)
  message(FATAL_ERROR "error does not name --${FLAG} and '${VALUE}':\n${err}")
endif()
