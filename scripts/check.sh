#!/usr/bin/env bash
# Tier-1 verification: builds the tree (once more with -Werror, the
# zero-warning gate), runs the full test suite serially and in parallel,
# then rebuilds the threading-relevant tests under ThreadSanitizer.
#
#   scripts/check.sh               # full sweep
#   SKIP_TSAN=1 scripts/check.sh   # skip the ThreadSanitizer leg
#   SKIP_ASAN=1 scripts/check.sh   # skip the AddressSanitizer leg
#   SKIP_UBSAN=1 scripts/check.sh  # skip the UBSan leg
#
# Every build and ctest call runs $(nproc) jobs: a bare -j puts no cap on
# the job count, which can exhaust the memory of a shared host.
#
# The determinism contract (docs/performance.md) makes DIFFODE_NUM_THREADS=1
# and =4 produce bitwise-identical results, so running both configurations is
# a regression gate, not a flake source. The same holds per kernel ISA:
# DIFFODE_KERNEL_ISA=scalar and =avx2 must pass the identical suite the
# dispatched build (the best ISA the CPU supports) passes.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lint: no std::function in kernel / op forward paths =="
# Node::backward_fn (variable.h) is the one sanctioned std::function on the
# tape; op forward paths are templated so no-grad forwards never pay a
# closure allocation, and the tensor kernels dispatch through raw function
# pointers; Tensor::Map takes a templated functor. No code occurrence is
# allowed under src/tensor, in the autograd ops, in the DIFFODE RHS
# (core/dhs.h: the DiffOdeRhs template; core/dhs.cc: the RhsVar node, whose
# backward closure captures one arena pointer), or in the GRU (nn/gru.h: the
# gate body; nn/gru.cc: the recurrence node, same closure shape). Comment
# lines don't count.
tensor_fn=$(grep -rh "std::function" src/tensor/ | grep -cv '^[[:space:]]*//' || true)
ops_fn=$(grep -h "std::function" src/autograd/ops.cc src/autograd/ops_linalg.cc \
  src/core/dhs.h src/core/dhs.cc src/nn/gru.h src/nn/gru.cc \
  | grep -cv '^[[:space:]]*//' || true)
if [[ "${tensor_fn}" -gt 0 || "${ops_fn}" -gt 0 ]]; then
  echo "lint FAIL: std::function in a forward path" \
       "(src/tensor: ${tensor_fn} > 0," \
       "src/autograd/ops*.cc + src/core/dhs.{h,cc} + src/nn/gru.{h,cc}:" \
       "${ops_fn} > 0)"
  exit 1
fi

echo "== lint: no raw double in the dtype-generic tensor surface =="
# The tensor/kernel substrate is templated on dtype; its headers must spell
# the element type T (or Scalar for the f64-typedef'd public aliases), never
# raw `double` — a raw double in a generic path silently widens the f32
# serving tier. Lines that are intentionally f64-specific carry a
# `// dtype:ok` escape with a reason; the ISA backend .cc files are exempt
# (each is a concrete-dtype implementation by design). Comment lines don't
# count.
dtype_raw=$(grep -rn '\bdouble\b' src/tensor/*.h \
  | grep -v 'dtype:ok' | grep -cv ':[0-9]*:[[:space:]]*//' || true)
if [[ "${dtype_raw}" -gt 0 ]]; then
  echo "lint FAIL: raw double in src/tensor headers (${dtype_raw} lines);"
  echo "use the dtype template parameter or add '// dtype:ok — <reason>':"
  grep -rn '\bdouble\b' src/tensor/*.h \
    | grep -v 'dtype:ok' | grep -v ':[0-9]*:[[:space:]]*//'
  exit 1
fi

echo "== tier-1: configure + build =="
cmake -B build -S . > /dev/null
cmake --build build -j"$(nproc)" > /dev/null

echo "== tier-1: zero-warning build (-Werror) =="
# A clean build of src/, tests/, bench/ and examples/ prints no compiler
# warning, so a new one is never lost among old ones. The tree builds in a
# directory of its own with -Werror: a TU that warns gets no object file,
# so a rerun compiles it again and fails again.
cmake -B build-werror -S . -DCMAKE_CXX_FLAGS=-Werror > /dev/null
cmake --build build-werror -j"$(nproc)" > /dev/null

echo "== tier-1: ctest, DIFFODE_NUM_THREADS=1 =="
# This leg and the next run the whole suite on the serial and the parallel
# schedule; among it, the no-grad forward path (nograd_test,
# serialize_roundtrip_test) must hold its bitwise-equivalence and
# zero-allocation contracts on both.
(cd build && DIFFODE_NUM_THREADS=1 ctest --output-on-failure -j"$(nproc)")

echo "== tier-1: ctest, default thread count =="
(cd build && ctest --output-on-failure -j"$(nproc)")

echo "== tier-1: ctest, DIFFODE_KERNEL_ISA=scalar =="
# Forces the portable scalar kernel backend through the runtime dispatcher;
# every test must pass on it bit-for-bit deterministically, since it is the
# fallback on machines without AVX2+FMA. That includes the lockstep engine
# matching the per-sequence path (batched_equiv_test sweeps the ISAs
# itself; this leg pins the dispatcher) and the f32 tier's accuracy and
# round-trip contracts on the scalar f32 kernels a non-AVX2 serving host
# runs (precision_test, serialize_roundtrip_test, kernels_isa_test).
(cd build && DIFFODE_KERNEL_ISA=scalar ctest --output-on-failure -j"$(nproc)")

echo "== tier-1: ctest, DIFFODE_KERNEL_ISA=avx2 =="
# The SIMD fallback on CPUs without AVX-512 F+DQ. Where AVX-512 is present the
# default legs above run it; without AVX2 the dispatcher warns and falls
# back to scalar, so the leg is portable.
(cd build && DIFFODE_KERNEL_ISA=avx2 ctest --output-on-failure -j"$(nproc)")

echo "== perfbench: summarizer unit tests =="
PYTHONDONTWRITEBYTECODE=1 python3 perfbench/test_summary.py

echo "== perfbench: correctness smoke, every workload =="
# The repository benchmark checks its own outputs and reports a run as
# incorrect when they are wrong; no ctest target sees that. A 2 s run per
# workload must end with a summary line that reads correct with 0 failures.
for w in serve-ushcn-f64 serve-icu-f32 train-ushcn-interp; do
  PYTHONDONTWRITEBYTECODE=1 python3 perfbench/run.py --workload "${w}" \
    --seed 1 --seconds 2 --trace 0 | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
ok = r.get("correct") is True and r.get("failed") == 0
print(sys.argv[1], "correct" if ok else "FAIL", "failed=%s" % r.get("failed"))
sys.exit(0 if ok else 1)' "${w}"
done

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  echo "== tsan: configure + build (-DDIFFODE_SANITIZE=thread) =="
  cmake -B build-tsan -S . -DDIFFODE_SANITIZE=thread > /dev/null
  cmake --build build-tsan -j"$(nproc)" \
    --target kernels_test trainer_test tensor_test autograd_test \
             alloc_stats_test nograd_test > /dev/null

  echo "== tsan: threading-relevant tests, DIFFODE_NUM_THREADS=4 =="
  (cd build-tsan && DIFFODE_NUM_THREADS=4 ctest --output-on-failure -j"$(nproc)" \
    -R 'kernels_test|trainer_test|tensor_test|autograd_test|alloc_stats_test|nograd_test')
fi

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  # The arena hands out raw bump-allocated storage and the pool recycles
  # buffers across tensors; ASan is the gate that no tape node or buffer is
  # ever touched after its arena was Reset or its block rebucketed.
  echo "== asan: configure + build (-DDIFFODE_SANITIZE=address) =="
  cmake -B build-asan -S . -DDIFFODE_SANITIZE=address > /dev/null
  cmake --build build-asan -j"$(nproc)" > /dev/null

  echo "== asan: full suite =="
  # Among it, two gates of their own:
  # - The NoGradScope eval path (nograd_test, serialize_roundtrip_test):
  #   value-only Vars bypass the tape arena entirely, and no-grad forwards
  #   must never read pooled buffers after recycling or touch a node that
  #   was elided.
  # - The lockstep engine, f64 and f32 (batched_equiv_test, precision_test,
  #   alloc_stats_test): it packs and scatters rows through raw kernel
  #   copies, carves flat scratch (the p buffer and one recovery slice per
  #   chunk) by chunk id, caches stage inputs across RK stages, and recycles
  #   its temporaries through its own pool scope. No recovery pass may index
  #   outside its chunk slice, no cached stage buffer may be read after the
  #   active-row count changed, and no packed block, checkpoint row or
  #   pooled buffer may outlive its storage.
  (cd build-asan && ctest --output-on-failure -j"$(nproc)")
fi

if [[ "${SKIP_UBSAN:-0}" != "1" ]]; then
  # The SIMD backends lean on pointer arithmetic over raw panels and masked
  # tail loads; UBSan (non-recovering) is the gate that no kernel indexes
  # out of its contractual range or hits signed overflow on the fixed-grid
  # partition math. Runs on both ISAs so the dispatcher and the scalar
  # fallback see identical coverage.
  echo "== ubsan: configure + build (-DDIFFODE_SANITIZE=undefined) =="
  cmake -B build-ubsan -S . -DDIFFODE_SANITIZE=undefined > /dev/null
  cmake --build build-ubsan -j"$(nproc)" > /dev/null

  echo "== ubsan: full suite (dispatched ISA) =="
  (cd build-ubsan && ctest --output-on-failure -j"$(nproc)")

  echo "== ubsan: full suite, DIFFODE_KERNEL_ISA=scalar =="
  (cd build-ubsan && DIFFODE_KERNEL_ISA=scalar ctest --output-on-failure -j"$(nproc)")
fi

echo "== check.sh: all green =="
