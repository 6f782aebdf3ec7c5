#ifndef DIFFODE_TENSOR_KERNELS_ISA_H_
#define DIFFODE_TENSOR_KERNELS_ISA_H_

#include "tensor/shape.h"

// Internal contract between the kernel dispatch layer (kernels.cc) and the
// per-ISA backends: kernels_scalar.cc (portable C++), and kernels_avx2.cc /
// kernels_avx512.cc, which instantiate the one set of x86 kernel templates
// in kernels_x86_panels.h over their register traits. Not part of the
// public kernel API.
//
// The split of responsibilities keeps the determinism contract in one place:
// kernels.cc owns ALL threading — the fixed chunk grids of ParallelFor /
// ReduceSum and the chunk-ordered combination of reduction partials — while
// a backend provides strictly serial bodies:
//
//   * GEMM row-panel functions, called with fixed panel bounds [i0, i1).
//     A backend must compute each c[i][j] by a rule that depends only on
//     (i, j, m, k, n) — never on the panel bounds — so that any row
//     partition of the same problem produces bitwise-identical output.
//   * Contiguous-range vector ops and elementwise maps (pure per-element
//     functions, trivially partition-independent).
//   * Reduction partials over one chunk of the fixed 4096-element grid
//     (kernels::kReductionGrain). The backend fixes the intra-chunk
//     association (e.g. 4 SIMD lanes combined in lane order); kernels.cc
//     sums the chunk partials in chunk order.
//
// Dtype: the table is a template over the element type; each backend
// provides one table per supported dtype (f64 and f32). A backend's f32
// kernels carry the same determinism contract at float width.
namespace diffode {
using Scalar = double;  // dtype:ok — mirrors tensor/tensor.h (sits below it)
}  // namespace diffode

namespace diffode::kernels::detail {

template <typename T>
struct KernelTable {
  // C = A * B row panel, A (m x k), B (k x n), all row-major.
  void (*gemm_panel)(Index i0, Index i1, Index k, Index n, const T* a,
                     const T* b, T* c);
  // C = A^T * B row panel with A stored (k x m).
  void (*gemm_tn_panel)(Index i0, Index i1, Index m, Index k, Index n,
                        const T* a, const T* b, T* c);
  // C = A * B^T row panel with B stored (n x k).
  void (*gemm_nt_panel)(Index i0, Index i1, Index k, Index n, const T* a,
                        const T* b, T* c);

  // Contiguous-range vector ops (serial; caller slices the range).
  void (*axpy)(Index n, T alpha, const T* x, T* y);
  void (*add_scaled)(Index n, const T* x, T alpha, const T* y, T* out);
  void (*scale)(Index n, T alpha, T* x);

  // Serial reduction partials over one chunk.
  T (*sum)(Index n, const T* x);
  T (*dot)(Index n, const T* x, const T* y);

  // Contiguous-range transcendental maps (out may alias x).
  void (*tanh)(Index n, const T* x, T* out);
  void (*sigmoid)(Index n, const T* x, T* out);
  void (*exp)(Index n, const T* x, T* out);

  // Batched-row movement (serial; pure copies, so bitwise on any backend).
  // dst[i] = src[rows[i]] — gather `count` rows into a packed block.
  void (*select_rows)(Index count, Index cols, const Index* rows, const T* src,
                      T* dst);
  // dst[rows[i]] = src[i] — scatter a packed block back.
  void (*scatter_rows)(Index count, Index cols, const Index* rows,
                       const T* src, T* dst);
};

// Backend tables are constant-initialized globals (function addresses are
// address constants), so dispatch in kernels.cc is a compare plus a constant
// address — no function-local-static guard on the per-op hot path.

// Portable C++ backend; always available.
extern const KernelTable<double> kScalarTableF64;  // dtype:ok — f64 table
extern const KernelTable<float> kScalarTableF32;

// AVX2+FMA backend; only linked on x86-64 builds (DIFFODE_HAS_AVX2_BUILD).
// Callers must gate on simd::IsaSupported before dispatching to it.
#if DIFFODE_HAS_AVX2_BUILD
extern const KernelTable<double> kAvx2TableF64;  // dtype:ok — f64 table
extern const KernelTable<float> kAvx2TableF32;
#endif

// AVX-512 backend (F+DQ); only linked when the toolchain can target it
// (DIFFODE_HAS_AVX512_BUILD). Same gating rule as the AVX2 table.
#if DIFFODE_HAS_AVX512_BUILD
extern const KernelTable<double> kAvx512TableF64;  // dtype:ok — f64 table
extern const KernelTable<float> kAvx512TableF32;
#endif

}  // namespace diffode::kernels::detail

#endif  // DIFFODE_TENSOR_KERNELS_ISA_H_
