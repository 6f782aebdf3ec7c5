// AVX-512 (F+DQ) backend for the kernel layer. This translation unit is
// compiled with -mavx512f -mavx512dq (see src/tensor/CMakeLists.txt); the
// rest of the tree stays portable.
//
// The kernel bodies are the shared templates of kernels_x86_panels.h, the
// same ones the AVX2 backend instantiates; this file only supplies their
// 512-bit register traits — 8 double or 16 float lanes, mask registers for
// tails — and the two tables. The transcendentals stay the 256-bit
// functions of kernels_x86_math.h, identical arithmetic to the AVX2 ISA.

#include "tensor/kernels_isa.h"

#if DIFFODE_HAS_AVX512_BUILD

#include <immintrin.h>

#include "tensor/kernels_x86_panels.h"

namespace diffode::kernels::detail {
namespace {

// The 256-bit halves are taken with zero-masking extracts under a full
// mask: the same vextract instruction as _mm512_castpd512_pd256 and
// _mm512_extractf64x4_pd, without the undefined pass-through operand GCC
// warns about.

template <typename T>
struct V;

template <>
struct V<double> {
  using T = double;
  using Reg = __m512d;
  using Mask = __mmask8;
  static constexpr Index kW = 8;
  static constexpr int kRow1Max = 4;
  static Reg Zero() { return _mm512_setzero_pd(); }
  static Reg Load(const double* p) { return _mm512_loadu_pd(p); }
  static void Store(double* p, Reg v) { _mm512_storeu_pd(p, v); }
  static Reg Broadcast(double v) { return _mm512_set1_pd(v); }
  static Reg Fma(Reg a, Reg b, Reg c) { return _mm512_fmadd_pd(a, b, c); }
  static Reg Add(Reg a, Reg b) { return _mm512_add_pd(a, b); }
  static Reg Mul(Reg a, Reg b) { return _mm512_mul_pd(a, b); }
  static Mask Tail(Index t) { return static_cast<Mask>((1u << t) - 1u); }
  static Reg MaskzLoad(Mask m, const double* p) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  static void MaskStore(double* p, Mask m, Reg v) {
    _mm512_mask_storeu_pd(p, m, v);
  }
  // Fixed combining tree: lo256 + hi256, then lane l joins lane l+2, then
  // l+1 — one order for every call site.
  static double HSum(Reg v) {
    const __m256d lo = _mm512_maskz_extractf64x4_pd(0xF, v, 0);
    const __m256d hi = _mm512_maskz_extractf64x4_pd(0xF, v, 1);
    const __m256d quad = _mm256_add_pd(lo, hi);
    const __m128d l = _mm256_castpd256_pd128(quad);
    const __m128d h = _mm256_extractf128_pd(quad, 1);
    const __m128d pair = _mm_add_pd(l, h);
    return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  }
};

template <>
struct V<float> {
  using T = float;
  using Reg = __m512;
  using Mask = __mmask16;
  static constexpr Index kW = 16;
  static constexpr int kRow1Max = 4;
  static Reg Zero() { return _mm512_setzero_ps(); }
  static Reg Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, Reg v) { _mm512_storeu_ps(p, v); }
  static Reg Broadcast(float v) { return _mm512_set1_ps(v); }
  static Reg Fma(Reg a, Reg b, Reg c) { return _mm512_fmadd_ps(a, b, c); }
  static Reg Add(Reg a, Reg b) { return _mm512_add_ps(a, b); }
  static Reg Mul(Reg a, Reg b) { return _mm512_mul_ps(a, b); }
  static Mask Tail(Index t) { return static_cast<Mask>((1u << t) - 1u); }
  static Reg MaskzLoad(Mask m, const float* p) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  static void MaskStore(float* p, Mask m, Reg v) {
    _mm512_mask_storeu_ps(p, m, v);
  }
  static float HSum(Reg v) {
    const __m256 lo = _mm512_maskz_extractf32x8_ps(0xFF, v, 0);  // DQ
    const __m256 hi = _mm512_maskz_extractf32x8_ps(0xFF, v, 1);
    const __m256 oct = _mm256_add_ps(lo, hi);
    const __m128 l = _mm256_castps256_ps128(oct);
    const __m128 h = _mm256_extractf128_ps(oct, 1);
    const __m128 quad = _mm_add_ps(l, h);
    const __m128 pair = _mm_add_ps(quad, _mm_movehl_ps(quad, quad));
    return _mm_cvtss_f32(_mm_add_ss(
        pair, _mm_shuffle_ps(pair, pair, _MM_SHUFFLE(1, 1, 1, 1))));
  }
};

}  // namespace

constinit const KernelTable<double>  // dtype:ok — per-dtype table
    kAvx512TableF64 = x86::MakeTable<V<double>>();  // dtype:ok
constinit const KernelTable<float> kAvx512TableF32 =
    x86::MakeTable<V<float>>();

}  // namespace diffode::kernels::detail

#endif  // DIFFODE_HAS_AVX512_BUILD
