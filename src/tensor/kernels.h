#ifndef DIFFODE_TENSOR_KERNELS_H_
#define DIFFODE_TENSOR_KERNELS_H_

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "core/parallel.h"
#include "tensor/shape.h"

namespace diffode::kernels {

// Named computational kernels behind Tensor and the autograd ops. All heavy
// loops in the repository funnel through these so that cache blocking,
// unrolling, threading, and SIMD live in exactly one place. Raw-pointer
// interfaces keep them usable from both Tensor methods and backward closures
// without materializing intermediate tensors (notably: no explicit
// transposes).
//
// Dtype: every kernel is a function template over the element type T
// (double for training/autograd, float for the opt-in serving tier); T is
// deduced from the pointer arguments, so call sites are unchanged from the
// pre-template API. Definitions live in kernels.cc with explicit
// instantiations for double and float.
//
// ISA dispatch: every kernel routes through one of three backends — portable
// scalar C++ (kernels_scalar.cc), AVX2+FMA microkernels (kernels_avx2.cc),
// or AVX-512 microkernels (kernels_avx512.cc) — selected once at startup by
// CPUID feature detection, overridable with
// DIFFODE_KERNEL_ISA=scalar|avx2|avx512 (see tensor/simd.h).
//
// Determinism contract (per ISA, per dtype): for a fixed input, a fixed ISA,
// and a fixed dtype, every kernel produces bitwise identical output at any
// thread count. Parallel kernels partition work by fixed chunk grids (see
// parallel::ParallelFor) with disjoint writes, and reductions combine
// fixed-grid partials in chunk order. Switching ISA may move results by
// rounding-level amounts (FMA, SIMD-lane accumulation); the equivalence
// between backends is ulp-level, not bitwise, and is pinned by
// tests/kernels_isa_test.cc for both dtypes.

// Elementwise work (maps, zips, vector ops) below this many elements stays
// on the calling thread. Purely a parallelization threshold: elementwise
// results are per-element functions of the input, so this value affects
// speed, never bits, and may be retuned freely.
inline constexpr Index kElementwiseGrain = 16384;

// Reductions get their own, smaller grain: a reduction chunk does far more
// work per output byte than a map chunk, so it pays to fan out earlier.
// Unlike kElementwiseGrain this is NOT a tuning knob — it is the fixed
// partial grid of the determinism contract. Sum/Dot evaluate one partial
// per 4096-element chunk and combine the partials in chunk order; changing
// the grid changes the combination tree and therefore the bit pattern of
// every reduction result, silently invalidating any stored golden values.
// It must stay 4096 (for every dtype).
inline constexpr Index kReductionGrain = 4096;

// C (m x n) = A (m x k) * B (k x n). All row-major, C is overwritten.
template <typename T>
void Gemm(Index m, Index k, Index n, const T* a, const T* b, T* c);

// C (m x n) = A^T * B where A is stored (k x m) row-major — the backward
// pass "A^T G" without materializing the transpose.
template <typename T>
void GemmTN(Index m, Index k, Index n, const T* a, const T* b, T* c);

// C (m x n) = A * B^T where A is (m x k) and B is stored (n x k) row-major —
// the backward pass "G B^T" without materializing the transpose.
template <typename T>
void GemmNT(Index m, Index k, Index n, const T* a, const T* b, T* c);

// y += alpha * x.
template <typename T>
void Axpy(Index n, T alpha, const T* x, T* y);

// out = x + alpha * y (fused; out may alias x).
template <typename T>
void AddScaled(Index n, const T* x, T alpha, const T* y, T* out);

// x *= alpha.
template <typename T>
void Scale(Index n, T alpha, T* x);

// Deterministic blocked reductions (fixed kReductionGrain partial grid).
template <typename T>
T Sum(Index n, const T* x);
template <typename T>
T Dot(Index n, const T* x, const T* y);

// ISA-dispatched transcendental maps (out may alias x). These are the hot
// functions of the GRU encoder, MLP heads, and softmax/Hoyer pipeline; the
// AVX2 backend evaluates them 4 double (8 float) lanes at a time.
template <typename T>
void MapTanh(Index n, const T* x, T* out);
template <typename T>
void MapSigmoid(Index n, const T* x, T* out);
template <typename T>
void MapExp(Index n, const T* x, T* out);

// y (rows x cols) = the row-wise softmax of x, in three passes so the exp
// runs as one vectorized map over the whole matrix: shift each row by its
// max, exponentiate, then normalize. The one softmax forward of the tree
// (ag::Softmax, ag::SoftmaxCrossEntropy and the lockstep engine's initial
// DHS state). y may alias x.
template <typename T>
void SoftmaxRows(Index rows, Index cols, const T* x, T* y) {
  for (Index i = 0; i < rows; ++i) {
    const T* xi = x + i * cols;
    T* yi = y + i * cols;
    T m = xi[0];
    for (Index j = 1; j < cols; ++j) m = std::max(m, xi[j]);
    for (Index j = 0; j < cols; ++j) yi[j] = xi[j] - m;
  }
  MapExp(rows * cols, y, y);
  for (Index i = 0; i < rows; ++i) {
    T* yi = y + i * cols;
    T z = T(0);
    for (Index j = 0; j < cols; ++j) z += yi[j];
    const T inv_z = T(1) / z;
    for (Index j = 0; j < cols; ++j) yi[j] *= inv_z;
  }
}

// Batched-row movement for the lockstep execution engine (docs/performance.md
// "Execution batching"). Both are pure row copies — no arithmetic — so
// every backend produces bitwise-identical results; the SIMD backends only
// widen the moves. Serial: a serving batch is at most a few hundred rows.
//
// dst[i] = src[rows[i]]: gather `count` rows of a (· x cols) matrix into a
// packed (count x cols) block.
template <typename T>
void SelectRows(Index count, Index cols, const Index* rows, const T* src,
                T* dst);
// dst[rows[i]] = src[i]: scatter a packed (count x cols) block back.
template <typename T>
void ScatterRows(Index count, Index cols, const Index* rows, const T* src,
                 T* dst);

namespace ops {

// Named elementwise functors. kernels::Map recognizes these types at
// compile time and routes them to the ISA-dispatched vector maps above;
// arbitrary functors/lambdas take the generic inlined scalar loop. Call
// sites simply write kernels::Map(n, x, out, ops::Tanh{}).
struct Tanh {
  template <typename T>
  T operator()(T x) const {
    return std::tanh(x);
  }
};
struct Sigmoid {
  template <typename T>
  T operator()(T x) const {
    return T(1) / (T(1) + std::exp(-x));
  }
};
struct Exp {
  template <typename T>
  T operator()(T x) const {
    return std::exp(x);
  }
};

}  // namespace ops

// out[i] = fn(x[i]). Templated functor dispatch: the loop body inlines the
// functor. The ops:: functor types divert to the vectorized maps. out may
// alias x.
template <typename T, typename F>
void Map(Index n, const T* x, T* out, F fn) {
  if constexpr (std::is_same_v<F, ops::Tanh>) {
    MapTanh(n, x, out);
  } else if constexpr (std::is_same_v<F, ops::Sigmoid>) {
    MapSigmoid(n, x, out);
  } else if constexpr (std::is_same_v<F, ops::Exp>) {
    MapExp(n, x, out);
  } else if (n >= kElementwiseGrain) {
    parallel::ParallelFor(0, n, kElementwiseGrain, [&](Index b, Index e) {
      for (Index i = b; i < e; ++i) out[i] = fn(x[i]);
    });
  } else {
    for (Index i = 0; i < n; ++i) out[i] = fn(x[i]);
  }
}

// out[i] = fn(x[i], y[i]). out may alias either input.
template <typename T, typename F>
void Zip(Index n, const T* x, const T* y, T* out, F fn) {
  if (n >= kElementwiseGrain) {
    parallel::ParallelFor(0, n, kElementwiseGrain, [&](Index b, Index e) {
      for (Index i = b; i < e; ++i) out[i] = fn(x[i], y[i]);
    });
    return;
  }
  for (Index i = 0; i < n; ++i) out[i] = fn(x[i], y[i]);
}

}  // namespace diffode::kernels

#endif  // DIFFODE_TENSOR_KERNELS_H_
