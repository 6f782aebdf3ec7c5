# Smoke run of the design-ablation bench at the tiny scale over two seeds:
#
#   cmake -DBENCH=<path/to/bench_ablation_design> -P ablation_design_smoke.cmake
#
# Passes only if the bench exits 0 and prints a CSV row with three numbers
# (mean MSE, its std, s/epoch) for the default and for consistency=0.
set(ENV{DIFFODE_BENCH_SCALE} tiny)
execute_process(COMMAND "${BENCH}" --csv --seeds 2
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "bench exited ${code}: ${err}")
endif()
foreach(variant default consistency=0)
  if(NOT out MATCHES "\n${variant},[-0-9.]+,[-0-9.]+,[-0-9.]+\n")
    message(FATAL_ERROR "no ${variant} row in:\n${out}")
  endif()
endforeach()
