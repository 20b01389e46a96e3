# Vectorization guard: compiles one source file with the flags a build
# gives it plus -fopt-info-vec-optimized, and fails unless GCC reports
# "loop vectorized" for every loop marked with a `// repro: must vectorize`
# comment on its `for` line. GCC places a loop's report on the `for` line
# or on a statement of its body, so a report anywhere from the marked line
# to the loop's closing brace (the next `}` at the `for`'s indentation)
# counts.
#
# Usage (what tests/CMakeLists.txt generates):
#   cmake -DCOMPILER=<g++> -DSOURCE=<file.cpp> "-DFLAGS=<flags>"
#         -DOBJECT=<out.o> -DMARKERS=<n> -P cmake/vectorize_guard.cmake
# MARKERS is the number of marked loops the source must hold, so deleting
# a marker fails the guard too.
foreach(var COMPILER SOURCE FLAGS OBJECT MARKERS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "vectorize_guard.cmake needs -D${var}=...")
  endif()
endforeach()

separate_arguments(flag_list UNIX_COMMAND "${FLAGS}")
execute_process(
  COMMAND "${COMPILER}" ${flag_list} -fopt-info-vec-optimized
          -c "${SOURCE}" -o "${OBJECT}"
  OUTPUT_VARIABLE compile_out
  ERROR_VARIABLE report
  RESULT_VARIABLE rc
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "compiling ${SOURCE} failed (${rc}):\n"
    "${compile_out}${report}")
endif()

# Lines of SOURCE that GCC reports a vectorized loop at.
get_filename_component(name "${SOURCE}" NAME)
string(REPLACE "." "\\." name_re "${name}")
string(REGEX MATCHALL "${name_re}:[0-9]+:[0-9]+: optimized: loop vectorized"
       hits "${report}")
set(hit_lines)
foreach(hit IN LISTS hits)
  string(REGEX REPLACE "^${name_re}:([0-9]+):.*" "\\1" line "${hit}")
  list(APPEND hit_lines ${line})
endforeach()

# 1-based line number of character offset `pos` in `text`.
function(line_of text pos out)
  string(SUBSTRING "${text}" 0 ${pos} before)
  string(REGEX REPLACE "[^\n]" "" newlines "${before}")
  string(LENGTH "${newlines}" n)
  math(EXPR n "${n} + 1")
  set(${out} ${n} PARENT_SCOPE)
endfunction()

file(READ "${SOURCE}" text)
set(marker "// repro: must vectorize")
set(found 0)
set(failures "")
string(FIND "${text}" "${marker}" at)
while(NOT at EQUAL -1)
  math(EXPR found "${found} + 1")
  line_of("${text}" ${at} first)

  # The marked line's indentation, then the loop's closing brace.
  string(SUBSTRING "${text}" 0 ${at} before)
  string(FIND "${before}" "\n" bol REVERSE)
  math(EXPR bol "${bol} + 1")
  string(SUBSTRING "${text}" ${bol} -1 from_bol)
  string(REGEX MATCH "^ *" indent "${from_bol}")
  string(SUBSTRING "${text}" ${at} -1 after)
  string(FIND "${after}" "\n${indent}}" close)
  if(close EQUAL -1)
    string(APPEND failures "\n  ${name}:${first}: no closing brace found")
  else()
    math(EXPR close "${at} + ${close} + 1")
    line_of("${text}" ${close} last)
    set(ok FALSE)
    foreach(line IN LISTS hit_lines)
      if(line GREATER_EQUAL first AND line LESS_EQUAL last)
        set(ok TRUE)
      endif()
    endforeach()
    if(NOT ok)
      string(APPEND failures
        "\n  ${name}:${first}: marked loop (lines ${first}-${last}) was not "
        "vectorized")
    endif()
  endif()

  math(EXPR next "${at} + 1")
  string(SUBSTRING "${text}" ${next} -1 rest)
  string(FIND "${rest}" "${marker}" at)
  if(NOT at EQUAL -1)
    math(EXPR at "${next} + ${at}")
  endif()
endwhile()

if(NOT found EQUAL MARKERS)
  message(FATAL_ERROR "${SOURCE} has ${found} loops marked '${marker}', "
    "expected ${MARKERS}")
endif()
if(NOT failures STREQUAL "")
  message(FATAL_ERROR "loops that must vectorize did not:${failures}\n"
    "flags: ${FLAGS}\nGCC's vectorized loops in ${name}: ${hit_lines}\n"
    "Recompile with -fopt-info-vec-missed for the reasons.")
endif()
message(STATUS "${found} marked loops vectorized in ${name}")
