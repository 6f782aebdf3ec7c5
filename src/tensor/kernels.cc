// Kernel dispatch and parallel orchestration. This TU owns every decision
// about threading: the fixed row-panel grid for GEMMs, the fixed elementwise
// chunk grid, and the fixed reduction partial grid with chunk-ordered
// combination. The arithmetic itself lives in the per-ISA backends
// (kernels_scalar.cc / kernels_avx2.cc / kernels_avx512.cc), reached through
// a dtype-specific KernelTable selected from simd::ActiveIsa(). Because the
// grids here never depend on the thread count and backend bodies never
// depend on partition bounds, output is bitwise reproducible at any pool
// size within a given (ISA, dtype) pair.

#include "tensor/kernels.h"

#include <type_traits>

#include "tensor/kernels_isa.h"
#include "tensor/simd.h"

namespace diffode::kernels {
namespace {

// Multiply count below which a GEMM is not worth fanning out.
constexpr Index kGemmParallelFlops = 1 << 15;

// Rows per parallel task. Fixed (thread-count independent) so the row
// partition — and therefore every output bit — never depends on the pool.
constexpr Index kGemmRowGrain = 32;

// Backend for the current ISA and dtype. Looked up once per kernel entry so
// one call never mixes backends even if a test flips SetActiveIsa
// concurrently. Everything here inlines to a relaxed load, compares, and a
// constant address — this runs on every kernel dispatch, thousands of times
// per forward pass on the small tensors these models use.
template <typename T>
inline const detail::KernelTable<T>* Table() {
  static_assert(std::is_same_v<T, double> || std::is_same_v<T, float>,
                "kernel dtype must be double or float");
  const simd::Isa isa = simd::ActiveIsa();
#if DIFFODE_HAS_AVX512_BUILD
  if (isa == simd::Isa::kAvx512) {
    if constexpr (std::is_same_v<T, double>)
      return &detail::kAvx512TableF64;
    else
      return &detail::kAvx512TableF32;
  }
#endif
#if DIFFODE_HAS_AVX2_BUILD
  if (isa == simd::Isa::kAvx2) {
    if constexpr (std::is_same_v<T, double>)
      return &detail::kAvx2TableF64;
    else
      return &detail::kAvx2TableF32;
  }
#endif
  (void)isa;
  if constexpr (std::is_same_v<T, double>)
    return &detail::kScalarTableF64;
  else
    return &detail::kScalarTableF32;
}

// Row-parallel driver shared by the GEMM variants.
template <typename Panel>
void RunRowPanels(Index m, Index k, Index n, Panel panel) {
  if (m * n * k >= kGemmParallelFlops && m > kGemmRowGrain) {
    parallel::ParallelFor(0, m, kGemmRowGrain, panel);
  } else {
    panel(0, m);
  }
}

template <typename T>
using MapRangeFn = void (*)(Index, const T*, T*);

template <typename T>
void RunMap(MapRangeFn<T> range, Index n, const T* x, T* out) {
  if (n >= kElementwiseGrain) {
    parallel::ParallelFor(0, n, kElementwiseGrain, [=](Index b, Index e) {
      range(e - b, x + b, out + b);
    });
    return;
  }
  range(n, x, out);
}

}  // namespace

template <typename T>
void Gemm(Index m, Index k, Index n, const T* a, const T* b, T* c) {
  const detail::KernelTable<T>* t = Table<T>();
  RunRowPanels(m, k, n, [=](Index i0, Index i1) {
    t->gemm_panel(i0, i1, k, n, a, b, c);
  });
}

template <typename T>
void GemmTN(Index m, Index k, Index n, const T* a, const T* b, T* c) {
  const detail::KernelTable<T>* t = Table<T>();
  RunRowPanels(m, k, n, [=](Index i0, Index i1) {
    t->gemm_tn_panel(i0, i1, m, k, n, a, b, c);
  });
}

template <typename T>
void GemmNT(Index m, Index k, Index n, const T* a, const T* b, T* c) {
  const detail::KernelTable<T>* t = Table<T>();
  RunRowPanels(m, k, n, [=](Index i0, Index i1) {
    t->gemm_nt_panel(i0, i1, k, n, a, b, c);
  });
}

template <typename T>
void Axpy(Index n, T alpha, const T* x, T* y) {
  const detail::KernelTable<T>* t = Table<T>();
  if (n >= kElementwiseGrain) {
    parallel::ParallelFor(0, n, kElementwiseGrain, [=](Index b, Index e) {
      t->axpy(e - b, alpha, x + b, y + b);
    });
    return;
  }
  t->axpy(n, alpha, x, y);
}

template <typename T>
void AddScaled(Index n, const T* x, T alpha, const T* y, T* out) {
  const detail::KernelTable<T>* t = Table<T>();
  if (n >= kElementwiseGrain) {
    parallel::ParallelFor(0, n, kElementwiseGrain, [=](Index b, Index e) {
      t->add_scaled(e - b, x + b, alpha, y + b, out + b);
    });
    return;
  }
  t->add_scaled(n, x, alpha, y, out);
}

template <typename T>
void Scale(Index n, T alpha, T* x) {
  const detail::KernelTable<T>* t = Table<T>();
  if (n >= kElementwiseGrain) {
    parallel::ParallelFor(0, n, kElementwiseGrain, [=](Index b, Index e) {
      t->scale(e - b, alpha, x + b);
    });
    return;
  }
  t->scale(n, alpha, x);
}

template <typename T>
T Sum(Index n, const T* x) {
  const detail::KernelTable<T>* t = Table<T>();
  if (n < kReductionGrain) return t->sum(n, x);
  // Chunk partials are combined in f64 regardless of T (ReduceSum's fixed
  // chunk-ordered serial sum), then rounded once to T — deterministic and,
  // for f32, strictly more accurate than a float combine.
  return static_cast<T>(
      parallel::ReduceSum(0, n, kReductionGrain, [=](Index b, Index e) {
        return static_cast<Scalar>(t->sum(e - b, x + b));
      }));
}

template <typename T>
T Dot(Index n, const T* x, const T* y) {
  const detail::KernelTable<T>* t = Table<T>();
  if (n < kReductionGrain) return t->dot(n, x, y);
  return static_cast<T>(
      parallel::ReduceSum(0, n, kReductionGrain, [=](Index b, Index e) {
        return static_cast<Scalar>(t->dot(e - b, x + b, y + b));
      }));
}

template <typename T>
void MapTanh(Index n, const T* x, T* out) {
  RunMap<T>(Table<T>()->tanh, n, x, out);
}

template <typename T>
void MapSigmoid(Index n, const T* x, T* out) {
  RunMap<T>(Table<T>()->sigmoid, n, x, out);
}

template <typename T>
void MapExp(Index n, const T* x, T* out) {
  RunMap<T>(Table<T>()->exp, n, x, out);
}

template <typename T>
void SelectRows(Index count, Index cols, const Index* rows, const T* src,
                T* dst) {
  Table<T>()->select_rows(count, cols, rows, src, dst);
}

template <typename T>
void ScatterRows(Index count, Index cols, const Index* rows, const T* src,
                 T* dst) {
  Table<T>()->scatter_rows(count, cols, rows, src, dst);
}

// Explicit instantiations: the two supported kernel dtypes.
#define DIFFODE_INSTANTIATE_KERNELS(T)                                        \
  template void Gemm<T>(Index, Index, Index, const T*, const T*, T*);         \
  template void GemmTN<T>(Index, Index, Index, const T*, const T*, T*);       \
  template void GemmNT<T>(Index, Index, Index, const T*, const T*, T*);       \
  template void Axpy<T>(Index, T, const T*, T*);                              \
  template void AddScaled<T>(Index, const T*, T, const T*, T*);               \
  template void Scale<T>(Index, T, T*);                                       \
  template T Sum<T>(Index, const T*);                                         \
  template T Dot<T>(Index, const T*, const T*);                               \
  template void MapTanh<T>(Index, const T*, T*);                              \
  template void MapSigmoid<T>(Index, const T*, T*);                           \
  template void MapExp<T>(Index, const T*, T*);                               \
  template void SelectRows<T>(Index, Index, const Index*, const T*, T*);      \
  template void ScatterRows<T>(Index, Index, const Index*, const T*, T*)

DIFFODE_INSTANTIATE_KERNELS(double);  // dtype:ok — explicit instantiation
DIFFODE_INSTANTIATE_KERNELS(float);

#undef DIFFODE_INSTANTIATE_KERNELS

}  // namespace diffode::kernels
