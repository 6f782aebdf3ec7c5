# End-to-end checks of `diffode_cli predict`'s input validation:
#
#   cmake -DCLI=<path/to/diffode_cli> -DWORK=<scratch dir> \
#         -DCASE=<bad_at|short_series> -P cli_predict_checks.cmake
#
# bad_at:       a non-finite or unparsable --at exits non-zero and names the
#               bad item on stderr.
# short_series: a series with one observation is named on stderr and
#               skipped; the other series are served, on the per-sequence
#               and the batched path.

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs the CLI with ARGN; sets <prefix>_code, <prefix>_out and <prefix>_err.
function(run_cli prefix)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  set(${prefix}_code "${code}" PARENT_SCOPE)
  set(${prefix}_out "${out}" PARENT_SCOPE)
  set(${prefix}_err "${err}" PARENT_SCOPE)
endfunction()

function(expect_ok prefix what)
  if(NOT "${${prefix}_code}" STREQUAL "0")
    message(FATAL_ERROR "${what} failed (${${prefix}_code}): ${${prefix}_err}")
  endif()
endfunction()

# A small label-free dataset and an untrained checkpoint for it.
run_cli(gen generate --dataset=ushcn --out=data.csv --count=6)
expect_ok(gen "generate")
run_cli(fit train --data=data.csv --channels=5 --task=interpolation
        --epochs=0 --latent=4 --save=weights.bin)
expect_ok(fit "train")
set(predict predict --data=data.csv --channels=5 --latent=4
    --load=weights.bin)

if(CASE STREQUAL "bad_at")
  foreach(at nan inf -inf 1e999 abc 1.0,2x 1.0,)
    run_cli(p ${predict} --at=${at})
    if("${p_code}" STREQUAL "0")
      message(FATAL_ERROR "--at=${at} exited 0:\n${p_out}")
    endif()
    if(NOT p_err MATCHES "bad --at: '[^']*' is not a finite time")
      message(FATAL_ERROR "--at=${at} gave no reason: ${p_err}")
    endif()
  endforeach()
elseif(CASE STREQUAL "short_series")
  # Series 6: a single observation.
  file(APPEND "${WORK}/data.csv" "99,3.5,1.0,,,,\n")
  foreach(batch 1 4)
    run_cli(p ${predict} --at=1.0,2.0 --batch=${batch})
    expect_ok(p "predict --batch=${batch}")
    if(NOT p_err MATCHES "series 6 skipped: 1 observation")
      message(FATAL_ERROR "--batch=${batch}: short series not named: ${p_err}")
    endif()
    if(NOT p_out MATCHES "series 5:" OR p_out MATCHES "series 6:")
      message(FATAL_ERROR "--batch=${batch}: wrong series served:\n${p_out}")
    endif()
  endforeach()
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
