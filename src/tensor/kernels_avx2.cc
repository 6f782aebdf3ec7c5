// AVX2+FMA backend for the kernel layer. This translation unit is compiled
// with -mavx2 -mfma (see src/tensor/CMakeLists.txt); everything else in the
// tree stays portable and the scalar backend in kernels_scalar.cc is the
// guaranteed fallback.
//
// The kernel bodies are the shared templates of kernels_x86_panels.h; this
// file only supplies their 256-bit register traits — 4 double or 8 float
// lanes, tails through vmaskmov with the TailMask* blend tables — and the
// two tables.

#include "tensor/kernels_isa.h"

#if DIFFODE_HAS_AVX2_BUILD

#include <immintrin.h>

#include "tensor/kernels_x86_math.h"
#include "tensor/kernels_x86_panels.h"

namespace diffode::kernels::detail {
namespace {

template <typename T>
struct V;

template <>
struct V<double> {
  using T = double;
  using Reg = __m256d;
  using Mask = __m256i;
  static constexpr Index kW = 4;
  static constexpr int kRow1Max = 8;
  static Reg Zero() { return _mm256_setzero_pd(); }
  static Reg Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, Reg v) { _mm256_storeu_pd(p, v); }
  static Reg Broadcast(double v) { return _mm256_set1_pd(v); }
  static Reg Fma(Reg a, Reg b, Reg c) { return _mm256_fmadd_pd(a, b, c); }
  static Reg Add(Reg a, Reg b) { return _mm256_add_pd(a, b); }
  static Reg Mul(Reg a, Reg b) { return _mm256_mul_pd(a, b); }
  static Mask Tail(Index t) { return x86math::TailMaskPd(t); }
  static Reg MaskzLoad(Mask m, const double* p) {
    return _mm256_maskload_pd(p, m);
  }
  static void MaskStore(double* p, Mask m, Reg v) {
    _mm256_maskstore_pd(p, m, v);
  }
  // Fixed combining tree: (l0+l2) + (l1+l3).
  static double HSum(Reg v) {
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    const __m128d pair = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  }
};

template <>
struct V<float> {
  using T = float;
  using Reg = __m256;
  using Mask = __m256i;
  static constexpr Index kW = 8;
  static constexpr int kRow1Max = 8;
  static Reg Zero() { return _mm256_setzero_ps(); }
  static Reg Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, Reg v) { _mm256_storeu_ps(p, v); }
  static Reg Broadcast(float v) { return _mm256_set1_ps(v); }
  static Reg Fma(Reg a, Reg b, Reg c) { return _mm256_fmadd_ps(a, b, c); }
  static Reg Add(Reg a, Reg b) { return _mm256_add_ps(a, b); }
  static Reg Mul(Reg a, Reg b) { return _mm256_mul_ps(a, b); }
  static Mask Tail(Index t) { return x86math::TailMaskPs(t); }
  static Reg MaskzLoad(Mask m, const float* p) {
    return _mm256_maskload_ps(p, m);
  }
  static void MaskStore(float* p, Mask m, Reg v) {
    _mm256_maskstore_ps(p, m, v);
  }
  // Fixed combining tree: ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)).
  static float HSum(Reg v) {
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    const __m128 quad = _mm_add_ps(lo, hi);
    const __m128 pair = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
    return _mm_cvtss_f32(_mm_add_ss(
        pair, _mm_shuffle_ps(pair, pair, _MM_SHUFFLE(1, 1, 1, 1))));
  }
};

}  // namespace

constinit const KernelTable<double>  // dtype:ok — per-dtype table
    kAvx2TableF64 = x86::MakeTable<V<double>>();  // dtype:ok
constinit const KernelTable<float> kAvx2TableF32 =
    x86::MakeTable<V<float>>();

}  // namespace diffode::kernels::detail

#endif  // DIFFODE_HAS_AVX2_BUILD
