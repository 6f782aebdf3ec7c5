#!/usr/bin/env bash
# Tier-1 verification: builds and runs the full test suite serially and in
# parallel, then rebuilds the threading-relevant tests under ThreadSanitizer.
#
#   scripts/check.sh               # full sweep
#   SKIP_TSAN=1 scripts/check.sh   # skip the ThreadSanitizer leg
#   SKIP_ASAN=1 scripts/check.sh   # skip the AddressSanitizer leg
#   SKIP_UBSAN=1 scripts/check.sh  # skip the UBSan leg
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
# allowed under src/tensor. Comment lines don't count.
tensor_fn=$(grep -rh "std::function" src/tensor/ | grep -cv '^[[:space:]]*//' || true)
ops_fn=$(grep -h "std::function" src/autograd/ops.cc src/autograd/ops_linalg.cc \
  | grep -cv '^[[:space:]]*//' || true)
if [[ "${tensor_fn}" -gt 0 || "${ops_fn}" -gt 0 ]]; then
  echo "lint FAIL: std::function in a forward path" \
       "(src/tensor: ${tensor_fn} > 0, src/autograd/ops*.cc: ${ops_fn} > 0)"
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
cmake --build build -j > /dev/null

echo "== tier-1: ctest, DIFFODE_NUM_THREADS=1 =="
(cd build && DIFFODE_NUM_THREADS=1 ctest --output-on-failure -j)

echo "== tier-1: ctest, default thread count =="
(cd build && ctest --output-on-failure -j)

echo "== tier-1: ctest, DIFFODE_KERNEL_ISA=scalar =="
# Forces the portable scalar kernel backend through the runtime dispatcher;
# every test must pass on it bit-for-bit deterministically, since it is the
# fallback on machines without AVX2+FMA.
(cd build && DIFFODE_KERNEL_ISA=scalar ctest --output-on-failure -j)

echo "== tier-1: grad-off (NoGradScope) matrix entry =="
# The no-grad forward path must hold its bitwise-equivalence and
# zero-allocation contracts on both the serial and parallel schedules (the
# tests internally sweep 1/4 threads and both kernel ISAs as well).
(cd build && DIFFODE_NUM_THREADS=1 ctest --output-on-failure \
  -R 'nograd_test|serialize_roundtrip_test')
(cd build && ctest --output-on-failure -R 'nograd_test|serialize_roundtrip_test')

echo "== tier-1: batched lockstep equivalence, DIFFODE_KERNEL_ISA=scalar =="
# The lockstep engines must match the per-sequence path (within the bounds
# batched_equiv_test states) on the scalar backend too; the test internally sweeps both ISAs and 1/4
# threads, this leg pins the dispatcher itself to scalar.
(cd build && DIFFODE_KERNEL_ISA=scalar ctest --output-on-failure \
  -R 'batched_equiv_test')

echo "== tier-1: f32 serving tier, DIFFODE_KERNEL_ISA=scalar =="
# The f32 tier's accuracy and round-trip contracts must hold on the
# portable scalar f32 kernels — the fallback a non-AVX2 serving host runs.
(cd build && DIFFODE_KERNEL_ISA=scalar ctest --output-on-failure \
  -R 'precision_test|serialize_roundtrip_test|kernels_isa_test')

echo "== tier-1: ctest, DIFFODE_KERNEL_ISA=avx2 =="
# The SIMD fallback on CPUs without AVX-512 F+DQ. Where AVX-512 is present the
# default legs above run it; without AVX2 the dispatcher warns and falls
# back to scalar, so the leg is portable.
(cd build && DIFFODE_KERNEL_ISA=avx2 ctest --output-on-failure -j)

echo "== perfbench: summarizer unit tests =="
PYTHONDONTWRITEBYTECODE=1 python3 perfbench/test_summary.py

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  echo "== tsan: configure + build (-DDIFFODE_SANITIZE=thread) =="
  cmake -B build-tsan -S . -DDIFFODE_SANITIZE=thread > /dev/null
  cmake --build build-tsan -j \
    --target kernels_test trainer_test tensor_test autograd_test \
             alloc_stats_test nograd_test > /dev/null

  echo "== tsan: threading-relevant tests, DIFFODE_NUM_THREADS=4 =="
  (cd build-tsan && DIFFODE_NUM_THREADS=4 ctest --output-on-failure \
    -R 'kernels_test|trainer_test|tensor_test|autograd_test|alloc_stats_test|nograd_test')
fi

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  # The arena hands out raw bump-allocated storage and the pool recycles
  # buffers across tensors; ASan is the gate that no tape node or buffer is
  # ever touched after its arena was Reset or its block rebucketed.
  echo "== asan: configure + build (-DDIFFODE_SANITIZE=address) =="
  cmake -B build-asan -S . -DDIFFODE_SANITIZE=address > /dev/null
  cmake --build build-asan -j > /dev/null

  echo "== asan: NoGradScope eval path =="
  # Value-only Vars bypass the tape arena entirely; this leg is the gate
  # that no-grad forwards never read pooled buffers after recycling and
  # never touch a node that was elided.
  (cd build-asan && ctest --output-on-failure \
    -R 'nograd_test|serialize_roundtrip_test')

  echo "== asan: lockstep engine (f64 and f32) =="
  # One engine serves both precisions (diffode_lockstep.cc). It packs and
  # scatters rows through raw kernel copies, carves flat scratch (the p
  # buffer and one Derivative slice per chunk) by chunk id, caches stage
  # inputs across RK stages, and recycles its temporaries through its own
  # pool scope. This leg is the gate that no recovery pass indexes outside
  # its chunk slice, no cached stage buffer is read after the active-row
  # count changed, and no packed block, checkpoint row or pooled buffer
  # outlives its storage.
  (cd build-asan && ctest --output-on-failure \
    -R 'batched_equiv_test|precision_test|alloc_stats_test')

  echo "== asan: full suite =="
  (cd build-asan && ctest --output-on-failure -j)
fi

if [[ "${SKIP_UBSAN:-0}" != "1" ]]; then
  # The SIMD backends lean on pointer arithmetic over raw panels and masked
  # tail loads; UBSan (non-recovering) is the gate that no kernel indexes
  # out of its contractual range or hits signed overflow on the fixed-grid
  # partition math. Runs on both ISAs so the dispatcher and the scalar
  # fallback see identical coverage.
  echo "== ubsan: configure + build (-DDIFFODE_SANITIZE=undefined) =="
  cmake -B build-ubsan -S . -DDIFFODE_SANITIZE=undefined > /dev/null
  cmake --build build-ubsan -j > /dev/null

  echo "== ubsan: full suite (dispatched ISA) =="
  (cd build-ubsan && ctest --output-on-failure -j)

  echo "== ubsan: full suite, DIFFODE_KERNEL_ISA=scalar =="
  (cd build-ubsan && DIFFODE_KERNEL_ISA=scalar ctest --output-on-failure -j)
fi

echo "== check.sh: all green =="
