# End-to-end checks of `diffode_cli predict`'s input validation and of its
# one serving path:
#
#   cmake -DCLI=<path/to/diffode_cli> -DWORK=<scratch dir> \
#         -DCASE=<bad_at|short_series|bad_csv|repeated_time|bad_checkpoint|
#                 bad_flags|bad_label|batch_equal> \
#         -P cli_predict_checks.cmake
#
# bad_at:         a non-finite or unparsable --at exits non-zero and names
#                 the bad item on stderr.
# short_series:   a series with one observation is named on stderr and
#                 skipped; the other series are served, at --batch=1 and 4.
# bad_csv:        a nan/inf time or value cell exits 1 with the line and the
#                 reason, at --batch=1 and 4.
# repeated_time:  a series that repeats an observation time exits 1 with
#                 the line and the reason, at --batch=1 and 4.
# bad_checkpoint: a checkpoint whose first rank field is corrupt exits 1
#                 with a reason.
# bad_flags:      a numeric flag that does not parse, is not finite or is
#                 out of range, or an unknown --model, exits 1 and names the
#                 flag (predict, plus train and generate cases).
# bad_label:      `train --labels` on a CSV whose class label is at or
#                 above the class-count cap (4096) exits 1 and names the
#                 label; one whose label changes within a series exits 1
#                 with the line and both labels.
# batch_equal:    on an f64 checkpoint, `predict --batch=1` and `--batch=4`
#                 print byte-identical stdout, for DIFFODE (the lockstep
#                 engine at B = 1 and B = 4) and for ODE-RNN (the
#                 per-sequence loop).

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
elseif(CASE STREQUAL "repeated_time")
  # Series 6 observes twice at t = 3.5 (lines 2 and 3 of the appended rows).
  file(READ "${WORK}/data.csv" content)
  string(REGEX MATCHALL "\n" newlines "${content}")
  list(LENGTH newlines rows)
  math(EXPR line "${rows} + 3")
  file(APPEND "${WORK}/data.csv" "99,1.0,1.0,,,,\n99,3.5,1.0,,,,\n"
                                 "99,3.5,,2.0,,,\n")
  foreach(batch 1 4)
    run_cli(p ${predict} --at=1.0 --batch=${batch})
    expect_rejected(p "repeated time --batch=${batch}"
                    "load failed: line ${line}: repeated time within series 99")
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
    # Every row's label column: a series carries one label, and a row that
    # disagrees with its series is rejected for that before the cap.
    string(REGEX REPLACE ",[0-9]+\n" ",${label}\n" bad "${content}")
    file(WRITE "${WORK}/bad_label.csv" "${bad}")
    run_cli(p train --data=bad_label.csv --channels=1 --labels
            --task=classification --epochs=0)
    expect_rejected(p "label ${label}" "bad label ${label}: ")
  endforeach()
  # A label that changes within a series: only the last row's.
  string(REGEX REPLACE ",[0-9]+\n$" ",7\n" mixed "${content}")
  file(WRITE "${WORK}/mixed_label.csv" "${mixed}")
  run_cli(p train --data=mixed_label.csv --channels=1 --labels
          --task=classification --epochs=0)
  expect_rejected(p "mixed label" "line [0-9]+: label 7 differs from label")
elseif(CASE STREQUAL "batch_equal")
  run_cli(fit train --data=data.csv --channels=5 --task=interpolation
          --model=ODE-RNN --epochs=0 --latent=4 --save=odernn.bin)
  expect_ok(fit "train ODE-RNN")
  # Queries before, inside and after the observation windows.
  foreach(model DIFFODE ODE-RNN)
    if(model STREQUAL "DIFFODE")
      set(weights weights.bin)
    else()
      set(weights odernn.bin)
    endif()
    foreach(batch 1 4)
      run_cli(p${batch} predict --data=data.csv --channels=5 --latent=4
              --model=${model} --load=${weights} --at=-3.0,1.0,2.5,40.0
              --batch=${batch})
      expect_ok(p${batch} "${model} predict --batch=${batch}")
    endforeach()
    if(NOT p1_out MATCHES "series 5:")
      message(FATAL_ERROR "${model}: not every series served:\n${p1_out}")
    endif()
    if(NOT p1_out STREQUAL p4_out)
      message(FATAL_ERROR "${model}: --batch=1 and --batch=4 differ:\n"
                          "${p1_out}\n--- vs ---\n${p4_out}")
    endif()
  endforeach()
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
