#include "core/dhs.h"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <utility>

#include "gradcheck.h"
#include "linalg/pinv.h"
#include "sparsity/pt_solver.h"
#include "tensor/random.h"

namespace diffode::core {
namespace {

using ag::Var;

struct Fixture {
  Var z;           // n x d parameter
  DhsContext ctx;
  Var query;       // 1 x d
  Var s;           // 1 x d = DHS at the query

  static Fixture Make(Index n, Index d, std::uint64_t seed) {
    Fixture f;
    Rng rng(seed);
    f.z = ag::Param(rng.NormalTensor(Shape{n, d}));
    f.ctx = BuildDhsContext(f.z, 0.0);
    f.query = ag::Param(rng.NormalTensor(Shape{1, d}));
    f.s = DhsForward(f.ctx, f.query);
    return f;
  }
};

// The factorization against the SVD Moore-Penrose pseudoinverse (Definition
// 1): (Zᵀ)† and A_p J = (I - (Zᵀ)† Zᵀ) 1.
TEST(DhsContextTest, MatchesSvdPseudoinverse) {
  for (Index n : {10, 20, 40}) {
    Fixture f = Fixture::Make(n, 4, static_cast<std::uint64_t>(n));
    const Tensor zt = f.z.value().Transposed();
    const Tensor pinv = linalg::PInverse(zt);
    const Tensor ap_colsum =
        (Tensor::Eye(n) - pinv.MatMul(zt)).MatMul(Tensor::Ones(Shape{n, 1}));
    EXPECT_LT((f.ctx.zt_pinv.value() - pinv).MaxAbs(), 1e-10) << "n=" << n;
    EXPECT_LT((f.ctx.ap_colsum.value() - ap_colsum).MaxAbs(), 1e-10)
        << "n=" << n;
    EXPECT_NEAR(f.ctx.ap_total.value().item(), ap_colsum.Sum(), 1e-10)
        << "n=" << n;
  }
}

TEST(DhsForwardTest, IsConvexCombinationOfRows) {
  // S = p Z with p a softmax: S lies inside the convex hull of Z's rows,
  // so every coordinate is bounded by the per-column extrema.
  Fixture f = Fixture::Make(8, 3, 2);
  const Tensor s = f.s.value();
  for (Index j = 0; j < 3; ++j) {
    Scalar lo = f.z.value().at(0, j), hi = lo;
    for (Index i = 1; i < 8; ++i) {
      lo = std::min(lo, f.z.value().at(i, j));
      hi = std::max(hi, f.z.value().at(i, j));
    }
    EXPECT_GE(s.at(0, j), lo - 1e-12);
    EXPECT_LE(s.at(0, j), hi + 1e-12);
  }
}

TEST(RecoverPVarTest, MatchesSvdClosedForms) {
  // Eq. 13 (min-norm, adaH) and Eq. 32 (max-Hoyer) written with the SVD
  // pseudoinverse: b = S (Zᵀ)†ᵀ, p = b + h A_p, p = b - (Σb - 1) (A_p J)ᵀ /
  // (J A_p J).
  for (Index n : {10, 20, 40}) {
    Fixture f = Fixture::Make(n, 4, static_cast<std::uint64_t>(n));
    const Tensor zt = f.z.value().Transposed();
    const Tensor pinv = linalg::PInverse(zt);
    const Tensor ap = Tensor::Eye(n) - pinv.MatMul(zt);
    const Tensor aj = ap.RowSums().Transposed();
    const Tensor b = f.s.value().MatMul(pinv.Transposed());
    Rng rng(static_cast<std::uint64_t>(n) + 1);
    const Tensor h = rng.NormalTensor(Shape{1, n});
    CacheAdaHCorrection(&f.ctx, ag::Constant(h));
    const std::pair<sparsity::PtStrategy, Tensor> cases[] = {
        {sparsity::PtStrategy::kMinNorm, b},
        {sparsity::PtStrategy::kAdaH, b + h.MatMul(ap)},
        {sparsity::PtStrategy::kMaxHoyer,
         b - aj * ((b.Sum() - 1.0) / aj.Sum())}};
    for (const auto& [strategy, expected] : cases) {
      EXPECT_LT((RecoverPVar(f.ctx, f.s, strategy).value() - expected)
                    .MaxAbs(),
                1e-10)
          << "n=" << n << " strategy " << static_cast<int>(strategy);
    }
  }
}

TEST(RecoverPVarTest, RoundTripReconstructsS) {
  // Any admissible p must satisfy p Z = S (the recovery is a right inverse);
  // max-Hoyer's p also sums to one.
  for (auto [n, d, seed] : {std::tuple<Index, Index, std::uint64_t>{12, 4, 5},
                            {12, 4, 4},
                            {15, 5, 5}}) {
    Fixture f = Fixture::Make(n, d, seed);
    Rng rng(99);
    CacheAdaHCorrection(&f.ctx, ag::Constant(rng.NormalTensor(Shape{1, n})));
    for (auto strategy :
         {sparsity::PtStrategy::kMaxHoyer, sparsity::PtStrategy::kMinNorm,
          sparsity::PtStrategy::kAdaH}) {
      Var p = RecoverPVar(f.ctx, f.s, strategy);
      Var s_rec = ag::MatMul(p, f.ctx.z);
      EXPECT_LT((s_rec.value() - f.s.value()).MaxAbs(), 1e-8)
          << n << "x" << d << " strategy " << static_cast<int>(strategy);
    }
    Var p = RecoverPVar(f.ctx, f.s, sparsity::PtStrategy::kMaxHoyer);
    EXPECT_NEAR(p.value().Sum(), 1.0, 1e-8) << n << "x" << d;
  }
}

TEST(RecoverPVarTest, ShortContextHasNoNullSpaceCorrection) {
  // n <= d: Zᵀ has an empty null space, so A_p = 0 and max-Hoyer returns the
  // min-norm b unchanged, which already recovers the attention weights.
  for (Index n : {3, 8}) {
    Rng rng(static_cast<std::uint64_t>(20 + n));
    Var z = ag::Param(rng.NormalTensor(Shape{n, 8}));
    Var query = ag::Param(rng.NormalTensor(Shape{1, 8}));
    DhsContext ctx = BuildDhsContext(z, 1e-6);
    EXPECT_EQ(ctx.ap_total.value().item(), 0.0);
    Var s = DhsForward(ctx, query);
    Var b = RecoverPVar(ctx, s, sparsity::PtStrategy::kMinNorm);
    Var p = RecoverPVar(ctx, s, sparsity::PtStrategy::kMaxHoyer);
    EXPECT_EQ((p.value() - b.value()).MaxAbs(), 0.0) << "n=" << n;
    const Scalar scale = 1.0 / std::sqrt(8.0);
    const Tensor attn =
        ag::Softmax(ag::MulScalar(ag::MatMulNT(query, z), scale)).value();
    EXPECT_LT((p.value() - attn).MaxAbs(), 1e-3) << "n=" << n;
    ag::Mean(ag::Square(p)).Backward();
    EXPECT_TRUE(z.grad().AllFinite());
  }
}

TEST(RecoverPVarTest, GradientFlowsToZAndS) {
  // Every strategy's hand-derived backward against finite differences, with
  // respect to the query (through S) and Z (through the factorization); adaH
  // also with respect to its free vector h.
  for (auto strategy :
       {sparsity::PtStrategy::kMaxHoyer, sparsity::PtStrategy::kMinNorm,
        sparsity::PtStrategy::kAdaH}) {
    Fixture f = Fixture::Make(7, 3, 6);
    Rng rng(7);
    Var h = ag::Param(rng.NormalTensor(Shape{1, 7}));
    auto scalar_fn = [&] {
      DhsContext ctx = BuildDhsContext(f.z, 1e-9);
      if (strategy == sparsity::PtStrategy::kAdaH) CacheAdaHCorrection(&ctx, h);
      Var s = DhsForward(ctx, f.query);
      Var p = RecoverPVar(ctx, s, strategy);
      return ag::Mean(ag::Square(p));
    };
    const int k = static_cast<int>(strategy);
    EXPECT_LT(testing::MaxGradError(f.query, scalar_fn, 1e-6), 1e-4) << k;
    EXPECT_LT(testing::MaxGradError(f.z, scalar_fn, 1e-6), 1e-4) << k;
    if (strategy == sparsity::PtStrategy::kAdaH) {
      EXPECT_LT(testing::MaxGradError(h, scalar_fn, 1e-6), 1e-4);
    }
  }
}

TEST(RecoverZVarTest, MatchesSvdReference) {
  // The rank-one fast path of Eq. 34 against explicit SVD pseudoinverses, at
  // the recovered p and at the forward attention weights.
  Fixture f = Fixture::Make(9, 3, 7);
  Rng rng(8);
  Tensor h2 = rng.NormalTensor(Shape{1, 9});
  Var attn = ag::Softmax(
      ag::MulScalar(ag::MatMulNT(f.query, f.z), 1.0 / std::sqrt(3.0)));
  for (const Var& p :
       {RecoverPVar(f.ctx, f.s, sparsity::PtStrategy::kMaxHoyer), attn}) {
    Var z_rec = RecoverZVar(f.ctx, p, ag::Constant(h2));
    Tensor z_ref = sparsity::RecoverZReference(f.z.value(), p.value(), h2);
    EXPECT_LT((z_rec.value() - z_ref).MaxAbs(), 1e-8);
  }
}

TEST(RecoverZVarTest, GradientFlows) {
  Fixture f = Fixture::Make(6, 3, 9);
  Rng rng(10);
  Var h2 = ag::Param(rng.NormalTensor(Shape{1, 6}));
  auto scalar_fn = [&] {
    DhsContext ctx = BuildDhsContext(f.z, 1e-9);
    Var s = DhsForward(ctx, f.query);
    Var p = RecoverPVar(ctx, s, sparsity::PtStrategy::kMaxHoyer);
    Var z_rec = RecoverZVar(ctx, p, h2);
    return ag::Mean(ag::Square(z_rec));
  };
  EXPECT_LT(testing::MaxGradError(h2, scalar_fn, 1e-6), 1e-4);
  EXPECT_LT(testing::MaxGradError(f.z, scalar_fn, 1e-6), 1e-4);
  // p as a free leaf, so every component of g_p is exercised on its own.
  Var p = ag::Param(rng.UniformTensor(Shape{1, 6}, 0.05, 0.4));
  auto p_fn = [&] {
    return ag::Mean(ag::Square(RecoverZVar(f.ctx, p, h2)));
  };
  EXPECT_LT(testing::MaxGradError(p, p_fn, 1e-6), 1e-4);
}

// The centrepiece identity: the analytic DHS derivative (Eq. 6/12)
// matches a finite difference of the *definition* S(t) = softmax(z(t) Zᵀ/√d) Z
// when z(t) moves along a known path.
TEST(DhsDerivativeTest, MatchesFiniteDifferenceOfDefinition) {
  const Index n = 10, d = 4;
  Rng rng(11);
  Tensor z_mat = rng.NormalTensor(Shape{n, d});
  Tensor z0 = rng.NormalTensor(Shape{1, d});
  Tensor vel = rng.NormalTensor(Shape{1, d});  // dz/dt, fixed
  Var z = ag::Constant(z_mat);
  DhsContext ctx = BuildDhsContext(z, 0.0);
  auto s_of_t = [&](Scalar t) {
    Var zq = ag::Constant(z0 + vel * t);
    return DhsForward(ctx, zq).value();
  };
  // Attention weights at t = 0 (directly from the definition).
  Tensor logits = z0.MatMul(z_mat.Transposed()) *
                  (1.0 / std::sqrt(static_cast<Scalar>(d)));
  const Scalar m = logits.Max();
  Tensor p = logits.Map([m](Scalar x) { return std::exp(x - m); });
  p *= 1.0 / p.Sum();
  Var ds = DhsDerivative(ctx, ag::Constant(vel), ag::Constant(p));
  const Scalar eps = 1e-6;
  Tensor fd = (s_of_t(eps) - s_of_t(-eps)) * (1.0 / (2.0 * eps));
  EXPECT_LT((ds.value() - fd).MaxAbs(), 1e-6);
}

TEST(DhsDerivativeTest, EquivalentToExplicitMatrixForm) {
  // ((w Zᵀ) ⊙ p) Z - (w Zᵀ pᵀ)(p Z) == w Zᵀ (P_diag - pᵀp) Z / ... (x √d).
  const Index n = 8, d = 3;
  Rng rng(12);
  Tensor z = rng.NormalTensor(Shape{n, d});
  Tensor w = rng.NormalTensor(Shape{1, d});
  Tensor raw = rng.UniformTensor(Shape{1, n}, 0.01, 1.0);
  Tensor p = raw * (1.0 / raw.Sum());
  Var zv = ag::Constant(z);
  DhsContext ctx = BuildDhsContext(zv, 0.0);
  Var fast = DhsDerivative(ctx, ag::Constant(w), ag::Constant(p));
  // Explicit O(n d^2) form.
  Tensor pdiag(Shape{n, n});
  for (Index i = 0; i < n; ++i) pdiag.at(i, i) = p[i];
  Tensor middle = pdiag - p.Transposed().MatMul(p);
  Tensor slow = w.MatMul(z.Transposed()).MatMul(middle).MatMul(z) *
                (1.0 / std::sqrt(static_cast<Scalar>(d)));
  EXPECT_LT((fast.value() - slow).MaxAbs(), 1e-10);
}

TEST(DhsDerivativeTest, GradientFlows) {
  // The hand-derived backward against finite differences, with respect to
  // w, p and Z (through the factorization).
  Fixture f = Fixture::Make(8, 3, 14);
  Rng rng(15);
  Var w = ag::Param(rng.NormalTensor(Shape{1, 3}));
  Var p = ag::Param(rng.UniformTensor(Shape{1, 8}, 0.01, 0.3));
  auto scalar_fn = [&] {
    DhsContext ctx = BuildDhsContext(f.z, 1e-9);
    return ag::Mean(ag::Square(DhsDerivative(ctx, w, p)));
  };
  EXPECT_LT(testing::MaxGradError(w, scalar_fn, 1e-6), 1e-4);
  EXPECT_LT(testing::MaxGradError(p, scalar_fn, 1e-6), 1e-4);
  EXPECT_LT(testing::MaxGradError(f.z, scalar_fn, 1e-6), 1e-4);
}

TEST(DhsDerivativeTest, ZeroVelocityGivesZeroDerivative) {
  Fixture f = Fixture::Make(6, 3, 13);
  Tensor p_raw = Tensor::Full(Shape{1, 6}, 1.0 / 6.0);
  Var ds = DhsDerivative(f.ctx, ag::Constant(Tensor(Shape{1, 3})),
                         ag::Constant(p_raw));
  EXPECT_EQ(ds.value().MaxAbs(), 0.0);
}

}  // namespace
}  // namespace diffode::core
