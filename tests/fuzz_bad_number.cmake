# Runs giph_fuzz with one malformed numeric flag and checks it refuses to
# run: exit code 2 and an error naming the flag and the value. A regression
# (a value read as its numeric prefix, or as 0) runs a few cases and exits 0.
# Usage (ctest registers the cases in tests/CMakeLists.txt):
#   cmake -DFUZZ=<giph_fuzz> -DFLAG=<name> -DVALUE=<bad> -P fuzz_bad_number.cmake
execute_process(
  COMMAND "${FUZZ}" --${FLAG} "${VALUE}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2 for --${FLAG} ${VALUE}, got ${rc}\n${out}${err}")
endif()
string(FIND "${err}" "--${FLAG}: expected an integer" at_flag)
string(FIND "${err}" "got '${VALUE}'" at_value)
if(at_flag LESS 0 OR at_value LESS 0)
  message(FATAL_ERROR "error does not name --${FLAG} and '${VALUE}':\n${err}")
endif()
