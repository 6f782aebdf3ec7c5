# Smoke run of the Fig. 3 bench at the tiny scale:
#
#   cmake -DBENCH=<path/to/bench_fig3_sparsity> -P fig3_sparsity_smoke.cmake
#
# Passes only if the bench exits 0 and prints a CSV row with two numbers
# for each of the three p_t strategies.
set(ENV{DIFFODE_BENCH_SCALE} tiny)
execute_process(COMMAND "${BENCH}" --csv
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "bench exited ${code}: ${err}")
endif()
foreach(strategy maxHoyer minNorm adaH)
  if(NOT out MATCHES "\n${strategy},[-0-9.]+,[-0-9.]+\n")
    message(FATAL_ERROR "no ${strategy} row in:\n${out}")
  endif()
endforeach()
