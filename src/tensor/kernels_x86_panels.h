#ifndef DIFFODE_TENSOR_KERNELS_X86_PANELS_H_
#define DIFFODE_TENSOR_KERNELS_X86_PANELS_H_

// The kernel bodies of the x86 SIMD backends: GEMM panels, vector ops,
// reduction partials and row moves, written once over a register trait W.
// kernels_avx2.cc (256-bit) and kernels_avx512.cc (512-bit) each define two
// traits, one per dtype, in their anonymous namespace, and build their
// tables with MakeTable<W>(). A trait provides:
//
//   T, Reg, Mask     element, register and tail-mask types
//   kW               lanes per register
//   kRow1Max         widest single-row column block, in registers
//   Zero Load Store Broadcast Fma Add Mul
//   Tail(t)          mask of the first t (0 < t < kW) lanes
//   MaskzLoad MaskStore HSum
//
// Every template here depends on W, and W has internal linkage, so every
// instantiation does too: neither object exports a kernel body that the
// linker could hand to the other ISA's table. Only those two TUs may include
// this header; it needs their target flags.
//
// Determinism (kernels_isa.h): each output element is computed by a fixed
// operation sequence that depends only on its indices and the problem
// shape, never on panel bounds. Every row owns its accumulators; lanes
// partition a reduction axis by residue class mod kW and finish through the
// trait's one HSum tree. Full vectors use plain loads and stores (AVX2's
// vmaskmov is not free); only a tail is masked, and it runs the identical
// fma chain with dead lanes.

#include <algorithm>
#include <type_traits>

#include "tensor/kernels_isa.h"
#include "tensor/kernels_x86_math.h"

namespace diffode::kernels::detail::x86 {

// One register's worth of lanes at some offset: all kW of them, or the
// first few through a mask.
template <typename W, bool kTail>
struct Lanes {
  typename W::Mask mask;
  typename W::Reg Load(const typename W::T* p) const {
    if constexpr (kTail) return W::MaskzLoad(mask, p);
    else return W::Load(p);
  }
  void Store(typename W::T* p, typename W::Reg v) const {
    if constexpr (kTail) W::MaskStore(p, mask, v);
    else W::Store(p, v);
  }
};

// Calls f(i, lanes) for each full vector of [0, n), then once for the
// masked tail if n is not a multiple of kW.
template <typename W, typename F>
inline void ForVectors(Index n, F f) {
  const Index nv = n & ~(W::kW - 1);
  for (Index i = 0; i < nv; i += W::kW) f(i, Lanes<W, false>{});
  if (nv < n) f(nv, Lanes<W, true>{W::Tail(n - nv)});
}

// ---------------------------------------------------------------------------
// GEMM: C = A * B. MR row accumulators × one column vector, held across the
// whole k loop, in 8/4/2-row blocks; A is read by broadcast, B by row
// vectors, so no packing.

template <int MR, typename W, typename L, typename T = typename W::T>
inline void MicroN(Index k, L cols, const T* a, Index lda, const T* b,
                   Index ldb, T* c, Index ldc) {
  typename W::Reg acc[MR];
  for (int r = 0; r < MR; ++r) acc[r] = W::Zero();
  for (Index p = 0; p < k; ++p) {
    const typename W::Reg bv = cols.Load(b + p * ldb);
    for (int r = 0; r < MR; ++r)
      acc[r] = W::Fma(W::Broadcast(a[r * lda + p]), bv, acc[r]);
  }
  for (int r = 0; r < MR; ++r) cols.Store(c + r * ldc, acc[r]);
}

template <int MR, typename W, typename T = typename W::T>
inline void RowBlockN(Index i, Index k, Index n, const T* a, const T* b,
                      T* c) {
  ForVectors<W>(n, [&](Index j, auto cols) {
    MicroN<MR, W>(k, cols, a + i * k, k, b + j, n, c + i * n + j, n);
  });
}

// Single-row path (the dominant inference shape: a 1 x d state against a
// d x d weight): NV column vectors share each a[p] broadcast. Per element
// it is the ascending-p fma chain of MicroN<1>, so the blocking never
// changes bits.
template <int NV, typename W, typename T = typename W::T>
inline void Row1Block(Index k, Index n, const T* a, const T* b, T* c) {
  typename W::Reg acc[NV];
  for (int v = 0; v < NV; ++v) acc[v] = W::Zero();
  for (Index p = 0; p < k; ++p) {
    const typename W::Reg av = W::Broadcast(a[p]);
    const T* br = b + p * n;
    for (int v = 0; v < NV; ++v)
      acc[v] = W::Fma(av, W::Load(br + W::kW * v), acc[v]);
  }
  for (int v = 0; v < NV; ++v) W::Store(c + W::kW * v, acc[v]);
}

// Halving cascade after the widest blocks: one NV block if it fits, then
// NV/2, down to a single vector.
template <int NV, typename W, typename T = typename W::T>
inline void Row1Rest(Index k, Index n, Index nv, Index& j, const T* a,
                     const T* b, T* c) {
  if (nv - j >= NV * W::kW) {
    Row1Block<NV, W>(k, n, a, b + j, c + j);
    j += NV * W::kW;
  }
  if constexpr (NV > 1) Row1Rest<NV / 2, W>(k, n, nv, j, a, b, c);
}

template <typename W, typename T = typename W::T>
inline void GemmRow1(Index k, Index n, const T* a, const T* b, T* c) {
  constexpr Index kBlock = W::kRow1Max * W::kW;
  const Index nv = n & ~(W::kW - 1);
  Index j = 0;
  for (; j + kBlock <= nv; j += kBlock)
    Row1Block<W::kRow1Max, W>(k, n, a, b + j, c + j);
  Row1Rest<W::kRow1Max / 2, W>(k, n, nv, j, a, b, c);
  if (j < n)
    MicroN<1, W>(k, Lanes<W, true>{W::Tail(n - j)}, a, k, b + j, n, c + j, n);
}

template <typename W, typename T = typename W::T>
void GemmPanel(Index i0, Index i1, Index k, Index n, const T* a, const T* b,
               T* c) {
  Index i = i0;
  for (; i + 8 <= i1; i += 8) RowBlockN<8, W>(i, k, n, a, b, c);
  if (i1 - i >= 4) {
    RowBlockN<4, W>(i, k, n, a, b, c);
    i += 4;
  }
  if (i1 - i >= 2) {
    RowBlockN<2, W>(i, k, n, a, b, c);
    i += 2;
  }
  if (i1 - i >= 1) GemmRow1<W>(k, n, a + i * k, b, c + i * n);
}

// ---------------------------------------------------------------------------
// GemmTN: C = A^T * B with A stored (k x m). Reading A down a column touches
// a new cache line every step, so each row block packs its A panel into a
// contiguous (kc x MR) buffer once and reuses it across all column vectors.
// k is blocked at kKc to bound the pack buffer; C accumulates across
// k-blocks in increasing p order, the first block starting from zero
// ((0 + block0) + block1 + ...), so the common k <= kKc case touches C
// exactly once and per-element arithmetic is independent of the blocking.

inline constexpr Index kKc = 256;

template <int MR, typename W, typename L, typename T = typename W::T>
inline void MicroPackedA(bool first, Index pc, L cols, const T* ap,
                         const T* b, Index ldb, T* c, Index ldc) {
  typename W::Reg acc[MR];
  for (int r = 0; r < MR; ++r)
    acc[r] = first ? W::Zero() : cols.Load(c + r * ldc);
  for (Index p = 0; p < pc; ++p) {
    const typename W::Reg bv = cols.Load(b + p * ldb);
    for (int r = 0; r < MR; ++r)
      acc[r] = W::Fma(W::Broadcast(ap[p * MR + r]), bv, acc[r]);
  }
  for (int r = 0; r < MR; ++r) cols.Store(c + r * ldc, acc[r]);
}

template <int MR, typename W, typename T = typename W::T>
inline void RowBlockTN(bool first, Index i, Index m, Index n, Index p0,
                       Index pc, const T* a, const T* b, T* c, T* apack) {
  for (Index p = 0; p < pc; ++p) {
    const T* src = a + (p0 + p) * m + i;
    for (int r = 0; r < MR; ++r) apack[p * MR + r] = src[r];
  }
  ForVectors<W>(n, [&](Index j, auto cols) {
    MicroPackedA<MR, W>(first, pc, cols, apack, b + p0 * n + j, n,
                        c + i * n + j, n);
  });
}

template <typename W, typename T = typename W::T>
void GemmTNPanel(Index i0, Index i1, Index m, Index k, Index n, const T* a,
                 const T* b, T* c) {
  if (k == 0) {
    std::fill(c + i0 * n, c + i1 * n, T(0));
    return;
  }
  alignas(64) T apack[kKc * 8];
  for (Index p0 = 0; p0 < k; p0 += kKc) {
    const bool first = p0 == 0;
    const Index pc = std::min(k - p0, kKc);
    Index i = i0;
    for (; i + 8 <= i1; i += 8)
      RowBlockTN<8, W>(first, i, m, n, p0, pc, a, b, c, apack);
    if (i1 - i >= 4) {
      RowBlockTN<4, W>(first, i, m, n, p0, pc, a, b, c, apack);
      i += 4;
    }
    if (i1 - i >= 2) {
      RowBlockTN<2, W>(first, i, m, n, p0, pc, a, b, c, apack);
      i += 2;
    }
    if (i1 - i >= 1) RowBlockTN<1, W>(first, i, m, n, p0, pc, a, b, c, apack);
  }
}

// ---------------------------------------------------------------------------
// GemmNT: C = A * B^T with B stored (n x k). Both operands are contiguous
// along k, so the reduction axis itself is vectorized: each output element
// owns one vector accumulator (lane l sums the p ≡ l terms, the masked
// k-tail included) finished by HSum. A 2x4 element block shares the a/b row
// loads; per element the arithmetic is VecDot's whatever the blocking.

template <typename W, typename T = typename W::T>
inline T VecDot(Index k, const T* x, const T* y) {
  typename W::Reg acc = W::Zero();
  ForVectors<W>(k, [&](Index p, auto v) {
    acc = W::Fma(v.Load(x + p), v.Load(y + p), acc);
  });
  return W::HSum(acc);
}

template <int MR, typename W, typename T = typename W::T>
inline void NTBlock4(Index i, Index j, Index k, Index n, const T* a,
                     const T* b, T* c) {
  typename W::Reg acc[MR][4];
  for (int r = 0; r < MR; ++r)
    for (int jj = 0; jj < 4; ++jj) acc[r][jj] = W::Zero();
  ForVectors<W>(k, [&](Index p, auto v) {
    typename W::Reg av[MR];
    for (int r = 0; r < MR; ++r) av[r] = v.Load(a + (i + r) * k + p);
    for (int jj = 0; jj < 4; ++jj) {
      const typename W::Reg bv = v.Load(b + (j + jj) * k + p);
      for (int r = 0; r < MR; ++r) acc[r][jj] = W::Fma(av[r], bv, acc[r][jj]);
    }
  });
  for (int r = 0; r < MR; ++r)
    for (int jj = 0; jj < 4; ++jj)
      c[(i + r) * n + j + jj] = W::HSum(acc[r][jj]);
}

template <typename W, typename T = typename W::T>
void GemmNTPanel(Index i0, Index i1, Index k, Index n, const T* a, const T* b,
                 T* c) {
  const Index n4 = n & ~Index{3};
  Index i = i0;
  for (; i + 2 <= i1; i += 2) {
    for (Index j = 0; j < n4; j += 4) NTBlock4<2, W>(i, j, k, n, a, b, c);
    for (Index j = n4; j < n; ++j) {
      c[i * n + j] = VecDot<W>(k, a + i * k, b + j * k);
      c[(i + 1) * n + j] = VecDot<W>(k, a + (i + 1) * k, b + j * k);
    }
  }
  if (i < i1) {
    for (Index j = 0; j < n4; j += 4) NTBlock4<1, W>(i, j, k, n, a, b, c);
    for (Index j = n4; j < n; ++j)
      c[i * n + j] = VecDot<W>(k, a + i * k, b + j * k);
  }
}

// ---------------------------------------------------------------------------
// Contiguous-range vector ops: full vectors plus one masked tail vector.

template <typename W, typename T = typename W::T>
void AxpyRange(Index n, T alpha, const T* x, T* y) {
  const typename W::Reg av = W::Broadcast(alpha);
  ForVectors<W>(n, [&](Index i, auto v) {
    v.Store(y + i, W::Fma(av, v.Load(x + i), v.Load(y + i)));
  });
}

template <typename W, typename T = typename W::T>
void AddScaledRange(Index n, const T* x, T alpha, const T* y, T* out) {
  const typename W::Reg av = W::Broadcast(alpha);
  ForVectors<W>(n, [&](Index i, auto v) {
    v.Store(out + i, W::Fma(av, v.Load(y + i), v.Load(x + i)));
  });
}

template <typename W, typename T = typename W::T>
void ScaleRange(Index n, T alpha, T* x) {
  const typename W::Reg av = W::Broadcast(alpha);
  ForVectors<W>(n, [&](Index i, auto v) {
    v.Store(x + i, W::Mul(av, v.Load(x + i)));
  });
}

// Reduction partials over one fixed-grid chunk: two vector accumulator
// chains (lane = p mod kW within each), combined in a fixed order, then the
// scalar tail in element order. The chunk grid itself lives in kernels.cc.

template <typename W, typename T = typename W::T>
T SumRange(Index n, const T* x) {
  const Index n2 = n & ~(2 * W::kW - 1);
  typename W::Reg acc0 = W::Zero();
  typename W::Reg acc1 = W::Zero();
  Index i = 0;
  for (; i < n2; i += 2 * W::kW) {
    acc0 = W::Add(acc0, W::Load(x + i));
    acc1 = W::Add(acc1, W::Load(x + i + W::kW));
  }
  T s = W::HSum(W::Add(acc0, acc1));
  for (; i < n; ++i) s += x[i];
  return s;
}

template <typename W, typename T = typename W::T>
T DotRange(Index n, const T* x, const T* y) {
  const Index n2 = n & ~(2 * W::kW - 1);
  typename W::Reg acc0 = W::Zero();
  typename W::Reg acc1 = W::Zero();
  Index i = 0;
  for (; i < n2; i += 2 * W::kW) {
    acc0 = W::Fma(W::Load(x + i), W::Load(y + i), acc0);
    acc1 = W::Fma(W::Load(x + i + W::kW), W::Load(y + i + W::kW), acc1);
  }
  T s = W::HSum(W::Add(acc0, acc1));
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

// ---------------------------------------------------------------------------
// Transcendental maps: both ISAs run the 256-bit functions of
// kernels_x86_math.h, so exp/tanh/sigmoid bits never depend on the register
// width. The wider ISA's wins are the GEMM panels and vector ops.

template <typename W, __m256d (*Fd)(__m256d), __m256 (*Fs)(__m256),
          typename T = typename W::T>
void MapRange(Index n, const T* x, T* out) {
  if constexpr (std::is_same_v<T, float>)
    x86math::MapRangePs<Fs>(n, x, out);
  else
    x86math::MapRangePd<Fd>(n, x, out);
}

// ---------------------------------------------------------------------------
// Batched-row movement: vector copies with a masked tail, so they carry bits
// unchanged and match every other backend.

template <typename W, typename T = typename W::T>
inline void CopyRow(Index cols, const T* s, T* d) {
  ForVectors<W>(cols, [&](Index j, auto v) { v.Store(d + j, v.Load(s + j)); });
}

template <typename W, typename T = typename W::T>
void SelectRows(Index count, Index cols, const Index* rows, const T* src,
                T* dst) {
  for (Index i = 0; i < count; ++i)
    CopyRow<W>(cols, src + rows[i] * cols, dst + i * cols);
}

template <typename W, typename T = typename W::T>
void ScatterRows(Index count, Index cols, const Index* rows, const T* src,
                 T* dst) {
  for (Index i = 0; i < count; ++i)
    CopyRow<W>(cols, src + i * cols, dst + rows[i] * cols);
}

// ---------------------------------------------------------------------------
// One backend table per trait.

template <typename W>
constexpr KernelTable<typename W::T> MakeTable() {
  using namespace x86math;
  return {GemmPanel<W>,
          GemmTNPanel<W>,
          GemmNTPanel<W>,
          AxpyRange<W>,
          AddScaledRange<W>,
          ScaleRange<W>,
          SumRange<W>,
          DotRange<W>,
          MapRange<W, TanhPd, TanhPs>,
          MapRange<W, SigmoidPd, SigmoidPs>,
          MapRange<W, ExpPd, ExpPs>,
          SelectRows<W>,
          ScatterRows<W>};
}

}  // namespace diffode::kernels::detail::x86

#endif  // DIFFODE_TENSOR_KERNELS_X86_PANELS_H_
