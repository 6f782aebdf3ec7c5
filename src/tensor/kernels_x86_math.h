#ifndef DIFFODE_TENSOR_KERNELS_X86_MATH_H_
#define DIFFODE_TENSOR_KERNELS_X86_MATH_H_

// 256-bit vector transcendentals shared by the x86 SIMD backends
// (kernels_avx2.cc and kernels_avx512.cc, through kernels_x86_panels.h).
// Only those TUs may include this header: it uses AVX2+FMA intrinsics and must be compiled with the
// corresponding target flags. Keeping one copy means the AVX2 and AVX-512
// ISAs evaluate exp/tanh/sigmoid with identical arithmetic — the wider ISA
// only changes the GEMM/vector-op kernels, which is where its speed lives.
//
// The float versions widen to double, evaluate the double polynomial, and
// round once back to float: ~0.5 ulp (f32) accuracy for two double
// evaluations per 8 floats. The serving tier's hot loops are GEMM-bound, so
// trading transcendental throughput for accuracy and zero extra code is the
// right side of the bargain.

#include <immintrin.h>

#include <cstdint>

#include "tensor/shape.h"

namespace diffode::kernels::detail::x86math {

// ---------------------------------------------------------------------------
// Double precision (4 lanes). ExpPd is a Cephes-style exp: round-to-nearest
// argument reduction against a two-part ln2, a rational approximation of
// exp(r) on |r| <= ln2/2 (~1 ulp), and reconstruction by two half-exponent
// scalings so borderline arguments (|x| near 709) neither overflow the
// exponent field nor flush prematurely. Inputs beyond the true overflow /
// total-underflow thresholds are blended to inf / 0; NaN propagates.

inline __m256d ExpPd(__m256d x) {
  const __m256d n_f = _mm256_round_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(1.44269504088896340736)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(n_f, _mm256_set1_pd(6.93145751953125e-1), x);
  r = _mm256_fnmadd_pd(n_f, _mm256_set1_pd(1.42860682030941723212e-6), r);
  const __m256d rr = _mm256_mul_pd(r, r);
  __m256d p = _mm256_set1_pd(1.26177193074810590878e-4);
  p = _mm256_fmadd_pd(p, rr, _mm256_set1_pd(3.02994407707441961300e-2));
  p = _mm256_fmadd_pd(p, rr, _mm256_set1_pd(9.99999999999999999910e-1));
  p = _mm256_mul_pd(p, r);
  __m256d q = _mm256_set1_pd(3.00198505138664455042e-6);
  q = _mm256_fmadd_pd(q, rr, _mm256_set1_pd(2.52448340349684104192e-3));
  q = _mm256_fmadd_pd(q, rr, _mm256_set1_pd(2.27265548208155028766e-1));
  q = _mm256_fmadd_pd(q, rr, _mm256_set1_pd(2.0));
  __m256d e = _mm256_div_pd(p, _mm256_sub_pd(q, p));
  e = _mm256_fmadd_pd(e, _mm256_set1_pd(2.0), _mm256_set1_pd(1.0));
  // e *= 2^n via two factors 2^(n/2) and 2^(n - n/2): each factor's biased
  // exponent stays in the normal range for every n that can reach here.
  const __m128i n_i = _mm256_cvtpd_epi32(n_f);
  const __m128i n_half = _mm_srai_epi32(n_i, 1);
  const __m128i bias = _mm_set1_epi32(1023);
  const __m256i f0 = _mm256_slli_epi64(
      _mm256_cvtepi32_epi64(_mm_add_epi32(n_half, bias)), 52);
  const __m256i f1 = _mm256_slli_epi64(
      _mm256_cvtepi32_epi64(
          _mm_add_epi32(_mm_sub_epi32(n_i, n_half), bias)), 52);
  e = _mm256_mul_pd(_mm256_mul_pd(e, _mm256_castsi256_pd(f0)),
                    _mm256_castsi256_pd(f1));
  // exp overflows above ln(DBL_MAX) and is exactly 0 below the subnormal
  // floor; in between the two-factor scaling produces gradual underflow.
  const __m256d inf = _mm256_set1_pd(__builtin_inf());
  e = _mm256_blendv_pd(
      e, inf, _mm256_cmp_pd(x, _mm256_set1_pd(709.782712893384), _CMP_GT_OQ));
  e = _mm256_blendv_pd(
      e, _mm256_setzero_pd(),
      _mm256_cmp_pd(x, _mm256_set1_pd(-745.2), _CMP_LT_OQ));
  return e;
}

// Cephes tanh: odd rational x + x^3 P(x^2)/Q(x^2) for |x| < 0.625, else
// sign(x) * (1 - 2/(exp(2|x|) + 1)); the small-|x| polynomial avoids the
// 1 - exp cancellation near zero, the exp branch saturates to ±1 exactly.
inline __m256d TanhPd(__m256d x) {
  const __m256d sign_bit = _mm256_set1_pd(-0.0);
  const __m256d sign = _mm256_and_pd(x, sign_bit);
  const __m256d z = _mm256_andnot_pd(sign_bit, x);
  const __m256d s = _mm256_mul_pd(x, x);
  __m256d pp = _mm256_set1_pd(-9.64399179425052238628e-1);
  pp = _mm256_fmadd_pd(pp, s, _mm256_set1_pd(-9.92877231001918586564e1));
  pp = _mm256_fmadd_pd(pp, s, _mm256_set1_pd(-1.61468768441708447952e3));
  __m256d qq = _mm256_add_pd(s, _mm256_set1_pd(1.12811678491632931402e2));
  qq = _mm256_fmadd_pd(qq, s, _mm256_set1_pd(2.23548839060100448583e3));
  qq = _mm256_fmadd_pd(qq, s, _mm256_set1_pd(4.84406305325125486048e3));
  const __m256d small = _mm256_fmadd_pd(
      _mm256_mul_pd(s, x), _mm256_div_pd(pp, qq), x);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d e = ExpPd(_mm256_mul_pd(z, two));
  const __m256d big = _mm256_or_pd(
      _mm256_sub_pd(one, _mm256_div_pd(two, _mm256_add_pd(e, one))), sign);
  return _mm256_blendv_pd(big, small,
                          _mm256_cmp_pd(z, _mm256_set1_pd(0.625), _CMP_LT_OQ));
}

inline __m256d SigmoidPd(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d e = ExpPd(_mm256_sub_pd(_mm256_setzero_pd(), x));
  return _mm256_div_pd(one, _mm256_add_pd(one, e));
}

// ---------------------------------------------------------------------------
// Single precision (8 lanes): native float Cephes evaluations. These used to
// widen each half to double and run the f64 polynomials twice, which made
// every f32 transcendental MORE expensive than its f64 twin; the native
// degree-reduced polynomials stay within ~2 ulp of libm's float functions
// (tests/kernels_isa_test.cc budgets 4) at roughly 3x the throughput.

// Cephes expf: n = round(x log2 e), r = x − n ln 2 (two-step Cody–Waite),
// degree-5 polynomial for e^r on |r| <= ln(2)/2, scaled by 2^n through the
// exponent field in two factors so near-threshold inputs underflow
// gradually instead of flushing at 2^-126.
inline __m256 ExpPs(__m256 x) {
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  __m256 fx = _mm256_mul_ps(x, log2e);
  fx = _mm256_round_ps(fx, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256 r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  r = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), r);
  __m256 p = _mm256_set1_ps(1.9875691500e-4f);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
  const __m256 one = _mm256_set1_ps(1.0f);
  p = _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), _mm256_add_ps(r, one));
  const __m256i n = _mm256_cvtps_epi32(fx);
  const __m256i n0 = _mm256_srai_epi32(n, 1);
  const __m256i n1 = _mm256_sub_epi32(n, n0);
  const __m256i bias = _mm256_set1_epi32(127);
  const __m256 f0 = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(n0, bias), 23));
  const __m256 f1 = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(n1, bias), 23));
  __m256 e = _mm256_mul_ps(_mm256_mul_ps(p, f0), f1);
  // expf overflows above ln(FLT_MAX) and is exactly 0 below the subnormal
  // floor; in between the two-factor scaling produces gradual underflow.
  const __m256 inf = _mm256_set1_ps(__builtin_inff());
  e = _mm256_blendv_ps(
      e, inf,
      _mm256_cmp_ps(x, _mm256_set1_ps(88.72283172607422f), _CMP_GT_OQ));
  e = _mm256_blendv_ps(
      e, _mm256_setzero_ps(),
      _mm256_cmp_ps(x, _mm256_set1_ps(-103.97f), _CMP_LT_OQ));
  return e;
}

// Cephes tanhf: odd polynomial x + x^3 P(x^2) for |x| < 0.625 — the same
// branch split as TanhPd, so cross-dtype behavior differs at no extra
// boundary — else sign(x) * (1 - 2/(exp(2|x|) + 1)).
inline __m256 TanhPs(__m256 x) {
  const __m256 sign_bit = _mm256_set1_ps(-0.0f);
  const __m256 sign = _mm256_and_ps(x, sign_bit);
  const __m256 z = _mm256_andnot_ps(sign_bit, x);
  const __m256 s = _mm256_mul_ps(x, x);
  __m256 p = _mm256_set1_ps(-5.70498872745e-3f);
  p = _mm256_fmadd_ps(p, s, _mm256_set1_ps(2.06390887954e-2f));
  p = _mm256_fmadd_ps(p, s, _mm256_set1_ps(-5.37397155531e-2f));
  p = _mm256_fmadd_ps(p, s, _mm256_set1_ps(1.33314422036e-1f));
  p = _mm256_fmadd_ps(p, s, _mm256_set1_ps(-3.33332819422e-1f));
  const __m256 small = _mm256_fmadd_ps(_mm256_mul_ps(s, x), p, x);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 e = ExpPs(_mm256_mul_ps(z, two));
  const __m256 big = _mm256_or_ps(
      _mm256_sub_ps(one, _mm256_div_ps(two, _mm256_add_ps(e, one))), sign);
  return _mm256_blendv_ps(big, small,
                          _mm256_cmp_ps(z, _mm256_set1_ps(0.625f), _CMP_LT_OQ));
}

inline __m256 SigmoidPs(__m256 x) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 e = ExpPs(_mm256_sub_ps(_mm256_setzero_ps(), x));
  return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

// ---------------------------------------------------------------------------
// Masked-tail range drivers: full vectors, then one masked vector for the
// tail elements so tails run the identical arithmetic. Usable by any backend
// whose transcendentals are the 256-bit functions above.

// Load/store mask covering the first `t` (1..3) double lanes of a tail.
inline __m256i TailMaskPd(Index t) {
  alignas(32) static const std::int64_t kMask[8] = {-1, -1, -1, -1,
                                                    0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMask + 4 - static_cast<int>(t)));
}

// Load/store mask covering the first `t` (1..7) float lanes of a tail.
inline __m256i TailMaskPs(Index t) {
  alignas(32) static const std::int32_t kMask[16] = {-1, -1, -1, -1, -1, -1,
                                                     -1, -1, 0,  0,  0,  0,
                                                     0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMask + 8 - static_cast<int>(t)));
}

template <__m256d (*F)(__m256d)>
void MapRangePd(Index n, const double* x, double* out) {  // dtype:ok — Pd helper
  Index i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(out + i, F(_mm256_loadu_pd(x + i)));
  if (i < n) {
    const __m256i mask = TailMaskPd(n - i);
    const __m256d v = _mm256_maskload_pd(x + i, mask);
    _mm256_maskstore_pd(out + i, mask, F(v));
  }
}

template <__m256 (*F)(__m256)>
void MapRangePs(Index n, const float* x, float* out) {
  Index i = 0;
  for (; i + 8 <= n; i += 8)
    _mm256_storeu_ps(out + i, F(_mm256_loadu_ps(x + i)));
  if (i < n) {
    const __m256i mask = TailMaskPs(n - i);
    const __m256 v = _mm256_maskload_ps(x + i, mask);
    _mm256_maskstore_ps(out + i, mask, F(v));
  }
}

}  // namespace diffode::kernels::detail::x86math

#endif  // DIFFODE_TENSOR_KERNELS_X86_MATH_H_
