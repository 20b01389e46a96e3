# Fused-multiply-add guard: disassembles the library archives and fails on
# any FMA instruction (vfmadd*, vfmsub*, vfnmadd*, vfnmsub*). A fused
# multiply-add rounds once where the source's multiply and add round
# twice, so one such instruction in a kernel moves result bits. The
# libraries are built for the host's AVX2 without FMA (src/CMakeLists.txt),
# and that the bits equal the baseline x86-64 build's rests on this
# property.
#
# Usage (what tests/CMakeLists.txt generates):
#   cmake -DOBJDUMP=<objdump> "-DARCHIVES=<a.a>|<b.a>|..."
#         -P cmake/fma_guard.cmake
foreach(var OBJDUMP ARCHIVES)
  if(NOT DEFINED ${var} OR "${${var}}" STREQUAL "")
    message(FATAL_ERROR "fma_guard.cmake needs -D${var}=...")
  endif()
endforeach()

string(REPLACE "|" ";" archives "${ARCHIVES}")
set(failures "")
foreach(archive IN LISTS archives)
  execute_process(
    COMMAND "${OBJDUMP}" -d --no-show-raw-insn "${archive}"
    OUTPUT_VARIABLE listing
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
  )
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "disassembling ${archive} failed (${rc}):\n${err}")
  endif()
  string(REGEX MATCHALL "[ \t]vf(n?madd|n?msub)[a-z0-9]*[ \t]" hits
         "${listing}")
  list(LENGTH hits count)
  if(count GREATER 0)
    list(REMOVE_DUPLICATES hits)
    string(REGEX REPLACE "[ \t]" "" hits "${hits}")
    get_filename_component(name "${archive}" NAME)
    string(APPEND failures "\n  ${name}: ${count} FMA instructions (${hits})")
  endif()
endforeach()

if(NOT failures STREQUAL "")
  message(FATAL_ERROR "fused multiply-adds in the libraries:${failures}\n"
    "Something enabled FMA with floating-point contraction; results would "
    "no longer match the baseline x86-64 build bit for bit.")
endif()
list(LENGTH archives n)
message(STATUS "no FMA instructions in ${n} archives")
