// Portable scalar backend for the kernel layer. These are the PR-1 blocked
// loops, templated on the element type but otherwise unchanged: cache-tiled
// GEMM panels with a 4-row register kernel, plus straightforward range ops.
// Kept free of target-specific flags so the scalar ISA is buildable and
// bit-stable everywhere; the AVX2/AVX-512 backends in kernels_avx2.cc /
// kernels_avx512.cc are the ones allowed to assume vector hardware.

#include <algorithm>
#include <cmath>

#include "tensor/kernels_isa.h"

namespace diffode::kernels::detail {
namespace {

// Cache tile edge for the GEMM family: a 64x64 double tile is 32 KiB, so an
// A-panel tile plus the B tile stay resident in L1/L2 while a row panel of C
// streams through (a float tile is half that; the same edge works for both).
constexpr Index kTile = 64;

// One row panel [i0, i1) of C = A * B. For each (k-tile, j-tile) the inner
// kernel advances four rows of C at once, so every loaded b value feeds four
// multiply-adds. Accumulation into a given c[i][j] happens in strictly
// increasing p order regardless of tiling, which keeps results identical for
// any row partition.
template <typename T>
void GemmPanel(Index i0, Index i1, Index k, Index n, const T* a, const T* b,
               T* c) {
  std::fill(c + i0 * n, c + i1 * n, T(0));
  for (Index p0 = 0; p0 < k; p0 += kTile) {
    const Index p1 = std::min(k, p0 + kTile);
    for (Index j0 = 0; j0 < n; j0 += kTile) {
      const Index j1 = std::min(n, j0 + kTile);
      Index i = i0;
      for (; i + 4 <= i1; i += 4) {
        T* c0 = c + (i + 0) * n;
        T* c1 = c + (i + 1) * n;
        T* c2 = c + (i + 2) * n;
        T* c3 = c + (i + 3) * n;
        for (Index p = p0; p < p1; ++p) {
          const T a0 = a[(i + 0) * k + p];
          const T a1 = a[(i + 1) * k + p];
          const T a2 = a[(i + 2) * k + p];
          const T a3 = a[(i + 3) * k + p];
          const T* bp = b + p * n;
          for (Index j = j0; j < j1; ++j) {
            const T bj = bp[j];
            c0[j] += a0 * bj;
            c1[j] += a1 * bj;
            c2[j] += a2 * bj;
            c3[j] += a3 * bj;
          }
        }
      }
      for (; i < i1; ++i) {
        T* ci = c + i * n;
        for (Index p = p0; p < p1; ++p) {
          const T aip = a[i * k + p];
          const T* bp = b + p * n;
          for (Index j = j0; j < j1; ++j) ci[j] += aip * bp[j];
        }
      }
    }
  }
}

// One row panel of C = A^T * B with A stored (k x m): identical structure to
// GemmPanel but A is read down its columns (stride m).
template <typename T>
void GemmTNPanel(Index i0, Index i1, Index m, Index k, Index n, const T* a,
                 const T* b, T* c) {
  std::fill(c + i0 * n, c + i1 * n, T(0));
  for (Index p0 = 0; p0 < k; p0 += kTile) {
    const Index p1 = std::min(k, p0 + kTile);
    for (Index j0 = 0; j0 < n; j0 += kTile) {
      const Index j1 = std::min(n, j0 + kTile);
      Index i = i0;
      for (; i + 4 <= i1; i += 4) {
        T* c0 = c + (i + 0) * n;
        T* c1 = c + (i + 1) * n;
        T* c2 = c + (i + 2) * n;
        T* c3 = c + (i + 3) * n;
        for (Index p = p0; p < p1; ++p) {
          const T* ap = a + p * m + i;
          const T a0 = ap[0];
          const T a1 = ap[1];
          const T a2 = ap[2];
          const T a3 = ap[3];
          const T* bp = b + p * n;
          for (Index j = j0; j < j1; ++j) {
            const T bj = bp[j];
            c0[j] += a0 * bj;
            c1[j] += a1 * bj;
            c2[j] += a2 * bj;
            c3[j] += a3 * bj;
          }
        }
      }
      for (; i < i1; ++i) {
        T* ci = c + i * n;
        for (Index p = p0; p < p1; ++p) {
          const T aip = a[p * m + i];
          const T* bp = b + p * n;
          for (Index j = j0; j < j1; ++j) ci[j] += aip * bp[j];
        }
      }
    }
  }
}

// One row panel of C = A * B^T with B stored (n x k): each output is a dot
// product of two contiguous rows, unrolled into four partial accumulators.
// The combine order of the partials is fixed by the code, so results are
// reproducible (though deliberately not identical to a 1-accumulator loop).
template <typename T>
void GemmNTPanel(Index i0, Index i1, Index k, Index n, const T* a, const T* b,
                 T* c) {
  for (Index i = i0; i < i1; ++i) {
    const T* ai = a + i * k;
    T* ci = c + i * n;
    for (Index j = 0; j < n; ++j) {
      const T* bj = b + j * k;
      T s0 = T(0), s1 = T(0), s2 = T(0), s3 = T(0);
      Index p = 0;
      for (; p + 4 <= k; p += 4) {
        s0 += ai[p + 0] * bj[p + 0];
        s1 += ai[p + 1] * bj[p + 1];
        s2 += ai[p + 2] * bj[p + 2];
        s3 += ai[p + 3] * bj[p + 3];
      }
      T s = (s0 + s1) + (s2 + s3);
      for (; p < k; ++p) s += ai[p] * bj[p];
      ci[j] = s;
    }
  }
}

template <typename T>
void AxpyRange(Index n, T alpha, const T* x, T* y) {
  for (Index i = 0; i < n; ++i) y[i] += alpha * x[i];
}

template <typename T>
void AddScaledRange(Index n, const T* x, T alpha, const T* y, T* out) {
  for (Index i = 0; i < n; ++i) out[i] = x[i] + alpha * y[i];
}

template <typename T>
void ScaleRange(Index n, T alpha, T* x) {
  for (Index i = 0; i < n; ++i) x[i] *= alpha;
}

template <typename T>
T SumRange(Index n, const T* x) {
  T s = T(0);
  for (Index i = 0; i < n; ++i) s += x[i];
  return s;
}

template <typename T>
T DotRange(Index n, const T* x, const T* y) {
  T s = T(0);
  for (Index i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

// The scalar transcendental maps call libm directly (the float instantiation
// resolves to the float overloads), so the scalar ISA reproduces the
// pre-SIMD behavior bit for bit at each dtype.
template <typename T>
void TanhRange(Index n, const T* x, T* out) {
  for (Index i = 0; i < n; ++i) out[i] = std::tanh(x[i]);
}

template <typename T>
void SigmoidRange(Index n, const T* x, T* out) {
  for (Index i = 0; i < n; ++i) out[i] = T(1) / (T(1) + std::exp(-x[i]));
}

template <typename T>
void ExpRange(Index n, const T* x, T* out) {
  for (Index i = 0; i < n; ++i) out[i] = std::exp(x[i]);
}

// Batched-row movement. Pure copies (no arithmetic), so every backend is
// bitwise identical by construction; the SIMD versions only widen the moves.
template <typename T>
void SelectRowsRange(Index count, Index cols, const Index* rows, const T* src,
                     T* dst) {
  for (Index i = 0; i < count; ++i) {
    const T* s = src + rows[i] * cols;
    T* d = dst + i * cols;
    for (Index j = 0; j < cols; ++j) d[j] = s[j];
  }
}

template <typename T>
void ScatterRowsRange(Index count, Index cols, const Index* rows, const T* src,
                      T* dst) {
  for (Index i = 0; i < count; ++i) {
    const T* s = src + i * cols;
    T* d = dst + rows[i] * cols;
    for (Index j = 0; j < cols; ++j) d[j] = s[j];
  }
}

template <typename T>
constexpr KernelTable<T> MakeScalarTable() {
  return KernelTable<T>{
      GemmPanel<T>,      GemmTNPanel<T>, GemmNTPanel<T>,
      AxpyRange<T>,      AddScaledRange<T>,
      ScaleRange<T>,     SumRange<T>,    DotRange<T>,
      TanhRange<T>,      SigmoidRange<T>,
      ExpRange<T>,       SelectRowsRange<T>,
      ScatterRowsRange<T>,
  };
}

}  // namespace

constinit const KernelTable<double>  // dtype:ok — per-dtype table
    kScalarTableF64 = MakeScalarTable<double>();
constinit const KernelTable<float> kScalarTableF32 = MakeScalarTable<float>();

}  // namespace diffode::kernels::detail
