# End-to-end checks of `diffode_cli predict`'s input validation:
#
#   cmake -DCLI=<path/to/diffode_cli> -DWORK=<scratch dir> \
#         -DCASE=<bad_at|short_series|bad_csv|bad_checkpoint|bad_flags|
#                 bad_label> \
#         -P cli_predict_checks.cmake
#
# bad_at:         a non-finite or unparsable --at exits non-zero and names
#                 the bad item on stderr.
# short_series:   a series with one observation is named on stderr and
#                 skipped; the other series are served, on the per-sequence
#                 and the batched path.
# bad_csv:        a nan/inf time or value cell exits 1 with the line and the
#                 reason, on the per-sequence and the batched path.
# bad_checkpoint: a checkpoint whose first rank field is corrupt exits 1
#                 with a reason.
# bad_flags:      a numeric flag that does not parse, is not finite or is
#                 out of range, or an unknown --model, exits 1 and names the
#                 flag (predict, plus train and generate cases).
# bad_label:      `train --labels` on a CSV whose class label is at or
#                 above the class-count cap (4096) exits 1 and names the
#                 label.

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

# Expects exit code 1 (not a crash) and stderr matching `reason`.
function(expect_rejected prefix what reason)
  if(NOT "${${prefix}_code}" STREQUAL "1")
    message(FATAL_ERROR "${what} exited ${${prefix}_code}, want 1: "
                        "${${prefix}_err}")
  endif()
  if(NOT "${${prefix}_err}" MATCHES "${reason}")
    message(FATAL_ERROR "${what} gave no reason: ${${prefix}_err}")
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
elseif(CASE STREQUAL "bad_csv")
  # Each row replaces line 3 of data.csv (the second observation of
  # series 0).
  file(STRINGS "${WORK}/data.csv" lines)
  list(GET lines 0 1 keep)
  list(SUBLIST lines 3 -1 rest)
  foreach(row "0,nan,1.0,,,,"  "0,inf,1.0,,,,"  "0,1.5,nan,,,,"
              "0,1.5,,,,-inf,")
    string(JOIN "\n" content ${keep} "${row}" ${rest})
    file(WRITE "${WORK}/bad.csv" "${content}\n")
    foreach(batch 1 4)
      run_cli(p predict --data=bad.csv --channels=5 --latent=4
              --load=weights.bin --at=1.0 --batch=${batch})
      expect_rejected(p "row '${row}' --batch=${batch}"
                      "load failed: line 3: non-finite (time|value) cell")
    endforeach()
  endforeach()
elseif(CASE STREQUAL "bad_checkpoint")
  # Header: magic (8 bytes), count (8), then the first parameter's rank.
  # Eight spaces there read as rank 0x2020202020202020 (above 2^61).
  file(WRITE "${WORK}/spaces.bin" "        ")
  execute_process(COMMAND dd if=spaces.bin of=weights.bin bs=1 seek=16
                          conv=notrunc
                  WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE dd_code OUTPUT_QUIET ERROR_QUIET)
  if(NOT dd_code STREQUAL "0")
    message(FATAL_ERROR "could not patch the checkpoint (dd: ${dd_code})")
  endif()
  run_cli(p ${predict} --at=1.0)
  expect_rejected(p "corrupt rank" "cannot load weights from weights.bin")
elseif(CASE STREQUAL "bad_flags")
  # A quoted item with a ';' expands to several arguments; the first names
  # the flag that must be rejected.
  foreach(bad "--batch=0;--precision=f32" --batch=abc --batch=1.5
              --channels=x --channels=5x --step=0 --step=nan --latent=-1
              --model=NOPE --model=NCDE --model=ODE-LSTM)
    run_cli(p ${predict} --at=1.0 ${bad})
    string(REGEX MATCH "^--[a-z]+=" flag "${bad}")
    expect_rejected(p "predict ${bad}" "(bad|unknown) ${flag}")
  endforeach()
  run_cli(p train --data=data.csv --channels=5 --task=interpolation
          --epochs=-1)
  expect_rejected(p "train --epochs=-1" "bad --epochs=")
  run_cli(p train --data=data.csv --channels=5 --task=interp)
  expect_rejected(p "train --task=interp" "unknown --task=")
  run_cli(p generate --dataset=ushcn --out=x.csv --count=0)
  expect_rejected(p "generate --count=0" "bad --count=")
elseif(CASE STREQUAL "bad_label")
  run_cli(gen generate --dataset=synthetic --out=labeled.csv --count=6)
  expect_ok(gen "generate synthetic")
  file(READ "${WORK}/labeled.csv" content)
  foreach(label 4096 900000000000)
    # The last row's label column.
    string(REGEX REPLACE ",[0-9]+\n$" ",${label}\n" bad "${content}")
    file(WRITE "${WORK}/bad_label.csv" "${bad}")
    run_cli(p train --data=bad_label.csv --channels=1 --labels
            --task=classification --epochs=0)
    expect_rejected(p "label ${label}" "bad label ${label}: ")
  endforeach()
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
