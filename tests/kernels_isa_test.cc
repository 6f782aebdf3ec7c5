// Cross-backend equivalence and per-ISA determinism, over the full
// (dtype x ISA) matrix: {f64, f32} x {scalar, avx2, avx512}. SIMD legs skip
// at runtime when the host CPU (or the build) lacks the ISA.
//
// Backends are allowed to differ by rounding (FMA contraction, SIMD lane
// association, polynomial transcendentals), so cross-ISA checks use an ulp
// budget in the dtype under test rather than bitwise equality. Within one
// (ISA, dtype) pair, results must be bitwise identical at any thread count —
// the PR-1 determinism contract, re-verified here for every backend.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/parallel.h"
#include "tensor/kernels.h"
#include "tensor/kernels_isa.h"
#include "tensor/random.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace diffode::kernels {
namespace {

// SIMD backends usable on this host/build, each compared against scalar.
std::vector<simd::Isa> SimdIsas() {
  std::vector<simd::Isa> isas;
  if (simd::IsaSupported(simd::Isa::kAvx2)) isas.push_back(simd::Isa::kAvx2);
  if (simd::IsaSupported(simd::Isa::kAvx512))
    isas.push_back(simd::Isa::kAvx512);
  return isas;
}

// Restores the startup ISA even if the test fails mid-way.
struct IsaGuard {
  explicit IsaGuard(simd::Isa isa) : prev(simd::ActiveIsa()) {
    EXPECT_TRUE(simd::SetActiveIsa(isa));
  }
  ~IsaGuard() { simd::SetActiveIsa(prev); }
  simd::Isa prev;
};

struct ThreadCountGuard {
  explicit ThreadCountGuard(int n) { parallel::ThreadPool::SetNumThreads(n); }
  ~ThreadCountGuard() { parallel::ThreadPool::SetNumThreads(0); }
};

template <typename T>
struct UlpInt;
template <>
struct UlpInt<double> {
  using S = std::int64_t;
};
template <>
struct UlpInt<float> {
  using S = std::int32_t;
};

// Distance in representable values of T between a and b (same-sign finite
// values; the monotone integer mapping of IEEE-754 makes this exact).
template <typename T>
std::uint64_t UlpDiff(T a, T b) {
  if (a == b) return 0;
  if (std::isnan(a) && std::isnan(b)) return 0;
  if (std::isnan(a) || std::isnan(b)) return ~std::uint64_t{0};
  typename UlpInt<T>::S ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  if ((ia < 0) != (ib < 0)) return ~std::uint64_t{0};  // opposite signs
  const auto d = ia - ib;
  return static_cast<std::uint64_t>(d < 0 ? -d : d);
}

// Cross-ISA agreement: |got - want| within max_ulp (in T's ulps), with an
// absolute escape hatch for results that cancel to ~0 (ulp distance explodes
// near zero).
template <typename T>
void ExpectClose(const TensorT<T>& got, const TensorT<T>& want,
                 std::uint64_t max_ulp, double abs_tol, const char* what) {
  ASSERT_TRUE(got.shape() == want.shape());
  for (Index i = 0; i < got.numel(); ++i) {
    if (std::fabs(static_cast<double>(got[i]) -
                  static_cast<double>(want[i])) <= abs_tol)
      continue;
    EXPECT_LE(UlpDiff(got[i], want[i]), max_ulp)
        << what << " i=" << i << " got=" << got[i] << " want=" << want[i];
  }
}

template <typename T>
void ExpectBitwiseEqual(const TensorT<T>& a, const TensorT<T>& b,
                        const char* what) {
  ASSERT_TRUE(a.shape() == b.shape());
  for (Index i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(UlpDiff(a[i], b[i]), 0u)
        << what << " i=" << i << " a=" << a[i] << " b=" << b[i];
  }
}

// Per-dtype tolerances: the f32 columns scale the f64 ones by the epsilon
// ratio (~1.2e-7 / 2.2e-16), keeping the same multiple-of-eps strictness.
template <typename T>
struct Tol;
template <>
struct Tol<double> {
  static constexpr double kGemmAbs = 1e-13;
  static constexpr double kVecAbs = 4e-15;
  static constexpr double kSumRel = 1e-11;
};
template <>
struct Tol<float> {
  static constexpr double kGemmAbs = 5e-5;
  static constexpr double kVecAbs = 2e-6;
  static constexpr double kSumRel = 5e-4;
};

// Shapes chosen to exercise every microkernel edge: sizes below one vector
// (f64 and f32 widths), non-multiples of the 8-row / 4-column register
// blocks, the kc=256 packing boundary of GemmTN, GEMV-like n=1, and empty
// tensors. The m = 1 rows reach every single-row column block of each SIMD
// table (1 to 8 vectors of 4 or 8 lanes on AVX2, 1 to 4 vectors of 8 or 16
// lanes on AVX-512) and column tails, with k off every lane multiple so
// GemmNT runs its masked k-tail at both widths.
struct GemmShape {
  Index m, k, n;
};
const GemmShape kGemmShapes[] = {
    {1, 1, 1},   {1, 9, 1},    {3, 5, 2},    {7, 13, 5},   {8, 32, 4},
    {9, 33, 5},  {17, 300, 7}, {31, 64, 1},  {64, 257, 3}, {65, 130, 33},
    {128, 32, 128}, {0, 4, 4}, {4, 0, 4},    {4, 4, 0},
    {1, 7, 5},   {1, 13, 12},  {1, 21, 29},  {1, 33, 37},  {1, 45, 61},
    {1, 19, 100}, {1, 11, 130},
};

template <typename Fn>
auto WithIsa(simd::Isa isa, Fn fn) {
  IsaGuard guard(isa);
  return fn();
}

template <typename T>
void CheckGemmFamily(simd::Isa simd_isa) {
  Rng rng(101);
  for (const auto& s : kGemmShapes) {
    TensorT<T> a = rng.NormalTensor(Shape{s.m, s.k}).template Cast<T>();
    TensorT<T> b = rng.NormalTensor(Shape{s.k, s.n}).template Cast<T>();
    // A / B stored transposed for the TN / NT variants.
    TensorT<T> at = rng.NormalTensor(Shape{s.k, s.m}).template Cast<T>();
    TensorT<T> bt = rng.NormalTensor(Shape{s.n, s.k}).template Cast<T>();

    auto run = [&](simd::Isa isa,
                   void (*gemm)(Index, Index, Index, const T*, const T*, T*),
                   const TensorT<T>& lhs, const TensorT<T>& rhs) {
      return WithIsa(isa, [&] {
        TensorT<T> c(Shape{s.m, s.n});
        gemm(s.m, s.k, s.n, lhs.data(), rhs.data(), c.data());
        return c;
      });
    };

    // k accumulation magnifies rounding differences, so budget scales with k.
    const std::uint64_t ulp = 16 + 4 * static_cast<std::uint64_t>(s.k);
    const double abs = Tol<T>::kGemmAbs;
    ExpectClose<T>(run(simd_isa, Gemm<T>, a, b),
                   run(simd::Isa::kScalar, Gemm<T>, a, b), ulp, abs, "Gemm");
    ExpectClose<T>(run(simd_isa, GemmTN<T>, at, b),
                   run(simd::Isa::kScalar, GemmTN<T>, at, b), ulp, abs,
                   "GemmTN");
    ExpectClose<T>(run(simd_isa, GemmNT<T>, a, bt),
                   run(simd::Isa::kScalar, GemmNT<T>, a, bt), ulp, abs,
                   "GemmNT");
  }
}

TEST(KernelsIsaTest, GemmFamilyMatchesScalarBackend) {
  const auto isas = SimdIsas();
  if (isas.empty()) GTEST_SKIP() << "no SIMD backend on this host/build";
  for (simd::Isa isa : isas) {
    SCOPED_TRACE(simd::IsaName(isa));
    CheckGemmFamily<double>(isa);
    CheckGemmFamily<float>(isa);
  }
}

// Every backend table of dtype T this host can run, with its ISA's name.
template <typename T>
std::vector<std::pair<const char*, const detail::KernelTable<T>*>> Tables() {
  constexpr bool kF32 = std::is_same_v<T, float>;
  std::vector<std::pair<const char*, const detail::KernelTable<T>*>> tables;
  if constexpr (kF32)
    tables.push_back({"scalar", &detail::kScalarTableF32});
  else
    tables.push_back({"scalar", &detail::kScalarTableF64});
#if DIFFODE_HAS_AVX2_BUILD
  if (simd::IsaSupported(simd::Isa::kAvx2)) {
    if constexpr (kF32)
      tables.push_back({"avx2", &detail::kAvx2TableF32});
    else
      tables.push_back({"avx2", &detail::kAvx2TableF64});
  }
#endif
#if DIFFODE_HAS_AVX512_BUILD
  if (simd::IsaSupported(simd::Isa::kAvx512)) {
    if constexpr (kF32)
      tables.push_back({"avx512", &detail::kAvx512TableF32});
    else
      tables.push_back({"avx512", &detail::kAvx512TableF64});
  }
#endif
  return tables;
}

// The panel contract of kernels_isa.h, stated directly: c[i][j] never
// depends on the panel bounds, so the rows [0, m) computed as the two panels
// [0, s) and [s, m) carry the same bits as one panel, for every split s.
template <typename T>
void CheckPanelSplits() {
  Rng rng(106);
  for (const auto& [isa, table] : Tables<T>()) {
    for (const auto& sh : kGemmShapes) {
      SCOPED_TRACE(::testing::Message() << isa << " m=" << sh.m << " k="
                                        << sh.k << " n=" << sh.n);
      const Index m = sh.m, k = sh.k, n = sh.n;
      TensorT<T> a = rng.NormalTensor(Shape{m, k}).template Cast<T>();
      TensorT<T> b = rng.NormalTensor(Shape{k, n}).template Cast<T>();
      TensorT<T> at = rng.NormalTensor(Shape{k, m}).template Cast<T>();
      TensorT<T> bt = rng.NormalTensor(Shape{n, k}).template Cast<T>();
      // Each panel variant as f(i0, i1, c) over the same operands.
      auto nn = [&](Index i0, Index i1, T* c) {
        table->gemm_panel(i0, i1, k, n, a.data(), b.data(), c);
      };
      auto tn = [&](Index i0, Index i1, T* c) {
        table->gemm_tn_panel(i0, i1, m, k, n, at.data(), b.data(), c);
      };
      auto nt = [&](Index i0, Index i1, T* c) {
        table->gemm_nt_panel(i0, i1, k, n, a.data(), bt.data(), c);
      };
      auto check = [&](auto panel, const char* what) {
        TensorT<T> whole = TensorT<T>::Full(Shape{m, n}, T(7));
        panel(0, m, whole.data());
        for (Index s = 0; s <= m; ++s) {
          TensorT<T> split = TensorT<T>::Full(Shape{m, n}, T(7));
          panel(0, s, split.data());
          panel(s, m, split.data());
          for (Index e = 0; e < m * n; ++e) {
            const T x = split[e], y = whole[e];
            ASSERT_EQ(std::memcmp(&x, &y, sizeof(T)), 0)
                << what << " split at row " << s << " element " << e;
          }
        }
      };
      check(nn, "gemm_panel");
      check(tn, "gemm_tn_panel");
      check(nt, "gemm_nt_panel");
    }
  }
}

TEST(KernelsIsaTest, PanelSplitsNeverChangeBits) {
  CheckPanelSplits<double>();
  CheckPanelSplits<float>();
}

template <typename T>
void CheckVectorOps(simd::Isa simd_isa) {
  Rng rng(102);
  for (Index n : {Index{0}, Index{1}, Index{3}, Index{4}, Index{7}, Index{15},
                  Index{17}, Index{64}, Index{1001}, Index{20000}}) {
    TensorT<T> x =
        rng.NormalTensor(Shape{1, std::max<Index>(n, 1)}).template Cast<T>();
    TensorT<T> y0 =
        rng.NormalTensor(Shape{1, std::max<Index>(n, 1)}).template Cast<T>();
    const T alpha = T(1.7);

    auto axpy = [&](simd::Isa isa) {
      return WithIsa(isa, [&] {
        TensorT<T> y = y0;
        Axpy(n, alpha, x.data(), y.data());
        return y;
      });
    };
    auto add_scaled = [&](simd::Isa isa) {
      return WithIsa(isa, [&] {
        TensorT<T> out = TensorT<T>::Uninit(x.shape());
        AddScaled(n, x.data(), alpha, y0.data(), out.data());
        for (Index i = n; i < out.numel(); ++i) out[i] = T(0);
        return out;
      });
    };
    auto scale = [&](simd::Isa isa) {
      return WithIsa(isa, [&] {
        TensorT<T> v = x;
        Scale(n, alpha, v.data());
        return v;
      });
    };
    // Per-element ops: a*b+c contracts to FMA on the SIMD backends only. The
    // absolute error is bounded by one rounding of the product (~eps·|αx|),
    // but the ulp distance of the SUM blows up when the add cancels, so the
    // budget pairs a small ulp cap with an operand-scaled absolute floor.
    ExpectClose<T>(axpy(simd_isa), axpy(simd::Isa::kScalar), 4,
                   Tol<T>::kVecAbs, "Axpy");
    ExpectClose<T>(add_scaled(simd_isa), add_scaled(simd::Isa::kScalar), 4,
                   Tol<T>::kVecAbs, "AddScaled");
    ExpectBitwiseEqual<T>(scale(simd_isa), scale(simd::Isa::kScalar), "Scale");
  }
}

TEST(KernelsIsaTest, VectorOpsMatchScalarBackend) {
  const auto isas = SimdIsas();
  if (isas.empty()) GTEST_SKIP() << "no SIMD backend on this host/build";
  for (simd::Isa isa : isas) {
    SCOPED_TRACE(simd::IsaName(isa));
    CheckVectorOps<double>(isa);
    CheckVectorOps<float>(isa);
  }
}

template <typename T>
void CheckReductions(simd::Isa simd_isa) {
  Rng rng(103);
  for (Index n : {Index{0}, Index{1}, Index{5}, Index{4095}, Index{4096},
                  Index{4097}, Index{50000}}) {
    TensorT<T> x =
        rng.NormalTensor(Shape{1, std::max<Index>(n, 1)}).template Cast<T>();
    TensorT<T> y =
        rng.NormalTensor(Shape{1, std::max<Index>(n, 1)}).template Cast<T>();
    T sum_simd, sum_sca, dot_simd, dot_sca;
    {
      IsaGuard g(simd_isa);
      sum_simd = Sum(n, x.data());
      dot_simd = Dot(n, x.data(), y.data());
    }
    {
      IsaGuard g(simd::Isa::kScalar);
      sum_sca = Sum(n, x.data());
      dot_sca = Dot(n, x.data(), y.data());
    }
    const double tol =
        Tol<T>::kSumRel * std::sqrt(static_cast<double>(n) + 1.0);
    EXPECT_NEAR(sum_simd, sum_sca, tol) << "n=" << n;
    EXPECT_NEAR(dot_simd, dot_sca, tol) << "n=" << n;
  }
}

TEST(KernelsIsaTest, ReductionsMatchScalarBackend) {
  const auto isas = SimdIsas();
  if (isas.empty()) GTEST_SKIP() << "no SIMD backend on this host/build";
  for (simd::Isa isa : isas) {
    SCOPED_TRACE(simd::IsaName(isa));
    CheckReductions<double>(isa);
    CheckReductions<float>(isa);
  }
}

template <typename T>
void CheckTranscendentals(simd::Isa simd_isa) {
  // Regular range plus the branch points and extremes of the vector
  // implementations: tanh's 0.625 split, exp's overflow/flush thresholds
  // (f64 thresholds; past the f32 range both paths saturate identically),
  // infinities and NaN.
  std::vector<double> xs;
  Rng rng(104);
  for (int i = 0; i < 4000; ++i) xs.push_back(rng.Uniform(-30.0, 30.0));
  for (double s : {-1.0, 1.0}) {
    for (double v : {0.0, 1e-30, 1e-8, 0.624, 0.625, 0.626, 1.0, 19.0, 22.0,
                     80.0, 87.0, 89.0, 100.0, 708.0, 709.7, 709.9, 745.0,
                     746.0, 1e4})
      xs.push_back(s * v);
  }
  xs.push_back(std::numeric_limits<double>::infinity());
  xs.push_back(-std::numeric_limits<double>::infinity());
  xs.push_back(std::numeric_limits<double>::quiet_NaN());

  const Index n = static_cast<Index>(xs.size());
  TensorT<T> x(Shape{1, n});
  for (Index i = 0; i < n; ++i)
    x[i] = static_cast<T>(xs[static_cast<std::size_t>(i)]);

  auto run = [&](simd::Isa isa, void (*map)(Index, const T*, T*)) {
    return WithIsa(isa, [&] {
      TensorT<T> out = TensorT<T>::Uninit(x.shape());
      map(n, x.data(), out.data());
      return out;
    });
  };

  // 4 ulp vs libm plus an absolute floor for subnormal exp results.
  const double abs = std::is_same_v<T, float> ? 1e-37 : 1e-300;
  ExpectClose<T>(run(simd_isa, MapTanh<T>), run(simd::Isa::kScalar, MapTanh<T>),
                 4, abs, "tanh");
  ExpectClose<T>(run(simd_isa, MapSigmoid<T>),
                 run(simd::Isa::kScalar, MapSigmoid<T>), 4, abs, "sigmoid");
  ExpectClose<T>(run(simd_isa, MapExp<T>), run(simd::Isa::kScalar, MapExp<T>),
                 4, abs, "exp");
}

TEST(KernelsIsaTest, TranscendentalsMatchLibm) {
  const auto isas = SimdIsas();
  if (isas.empty()) GTEST_SKIP() << "no SIMD backend on this host/build";
  for (simd::Isa isa : isas) {
    SCOPED_TRACE(simd::IsaName(isa));
    CheckTranscendentals<double>(isa);
    CheckTranscendentals<float>(isa);
  }
}

template <typename T>
void CheckThreadDeterminism(const std::vector<simd::Isa>& isas) {
  Rng rng(105);
  const Index m = 96, k = 300, n = 40;
  TensorT<T> a = rng.NormalTensor(Shape{m, k}).template Cast<T>();
  TensorT<T> b = rng.NormalTensor(Shape{k, n}).template Cast<T>();
  TensorT<T> big = rng.NormalTensor(Shape{1, 50000}).template Cast<T>();

  for (simd::Isa isa : isas) {
    IsaGuard ig(isa);
    TensorT<T> c1(Shape{m, n}), t1 = TensorT<T>::Uninit(big.shape());
    T s1;
    {
      ThreadCountGuard tg(1);
      Gemm(m, k, n, a.data(), b.data(), c1.data());
      MapTanh(big.numel(), big.data(), t1.data());
      s1 = Sum(big.numel(), big.data());
    }
    for (int threads : {2, 4}) {
      ThreadCountGuard tg(threads);
      TensorT<T> c(Shape{m, n}), t = TensorT<T>::Uninit(big.shape());
      Gemm(m, k, n, a.data(), b.data(), c.data());
      MapTanh(big.numel(), big.data(), t.data());
      const T s = Sum(big.numel(), big.data());
      ExpectBitwiseEqual<T>(c, c1, simd::IsaName(isa));
      ExpectBitwiseEqual<T>(t, t1, simd::IsaName(isa));
      EXPECT_EQ(UlpDiff(s, s1), 0u)
          << simd::IsaName(isa) << " threads=" << threads;
    }
  }
}

TEST(KernelsIsaTest, BitwiseDeterministicAcrossThreadCountsPerIsa) {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  for (simd::Isa isa : SimdIsas()) isas.push_back(isa);
  CheckThreadDeterminism<double>(isas);
  CheckThreadDeterminism<float>(isas);
}

TEST(KernelsIsaTest, EnvOverrideAndDispatchStateAreConsistent) {
  // Startup resolution picks the best ISA CPUID supports, unless
  // DIFFODE_KERNEL_ISA pins a supported one; SetActiveIsa must refuse
  // unsupported requests without changing state.
  const simd::Isa active = simd::ActiveIsa();
  EXPECT_TRUE(simd::IsaSupported(active));
  simd::Isa best = simd::Isa::kScalar;
  for (simd::Isa isa : {simd::Isa::kAvx2, simd::Isa::kAvx512})
    if (simd::IsaSupported(isa)) best = isa;
  const char* env = std::getenv("DIFFODE_KERNEL_ISA");
  if (env == nullptr || env[0] == '\0') {
    EXPECT_EQ(active, best) << simd::IsaName(active);
  } else if (std::strcmp(env, simd::IsaName(active)) != 0) {
    EXPECT_EQ(active, best) << "unusable override " << env;
  }
  for (simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (simd::IsaSupported(isa)) {
      EXPECT_TRUE(simd::SetActiveIsa(isa));
      EXPECT_EQ(simd::ActiveIsa(), isa);
    } else {
      const simd::Isa before = simd::ActiveIsa();
      EXPECT_FALSE(simd::SetActiveIsa(isa));
      EXPECT_EQ(simd::ActiveIsa(), before);
    }
  }
  EXPECT_TRUE(simd::SetActiveIsa(active));
}

}  // namespace
}  // namespace diffode::kernels
