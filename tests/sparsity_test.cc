#include <gtest/gtest.h>

#include <cmath>

#include "core/dhs.h"
#include "linalg/pinv.h"
#include "sparsity/hoyer.h"
#include "sparsity/pt_solver.h"
#include "tensor/random.h"

namespace diffode::sparsity {
namespace {

// ---------------------------------------------------------------------------
// Hoyer metric: the paper's four properties (Definition 2, criteria a-d).
// ---------------------------------------------------------------------------

TEST(HoyerTest, ExtremeValues) {
  // Single spike -> 1; uniform -> 0.
  EXPECT_NEAR(Hoyer(Tensor::FromVector({0, 0, 5, 0})), 1.0, 1e-12);
  EXPECT_NEAR(Hoyer(Tensor::FromVector({2, 2, 2, 2})), 0.0, 1e-12);
}

TEST(HoyerTest, PropertyA_RobinHoodTransferLowersSparsity) {
  // Moving alpha from a larger to a smaller element (sum constant) must
  // strictly decrease the metric.
  Tensor x = Tensor::FromVector({0.7, 0.2, 0.1});
  Tensor y = Tensor::FromVector({0.6, 0.3, 0.1});  // alpha=0.1 from x0 to x1
  EXPECT_LT(Hoyer(y), Hoyer(x));
}

TEST(HoyerTest, PropertyB_ScaleInvariance) {
  Rng rng(1);
  Tensor x = rng.UniformTensor(Shape{10}, 0.01, 1.0);
  EXPECT_NEAR(Hoyer(x), Hoyer(x * 7.3), 1e-12);
  EXPECT_NEAR(Hoyer(x), Hoyer(x * 0.001), 1e-12);
}

TEST(HoyerTest, PropertyC_GrowingMainElementRaisesSparsity) {
  // Once one element dominates, growing it further increases sparsity.
  Tensor base = Tensor::FromVector({1.0, 0.3, 0.2, 0.1});
  Scalar prev = Hoyer(base);
  for (Scalar add = 1.0; add < 5.0; add += 1.0) {
    Tensor grown = base;
    grown[0] += add;
    const Scalar h = Hoyer(grown);
    EXPECT_GT(h, prev);
    prev = h;
  }
}

TEST(HoyerTest, PropertyD_AppendingZerosRaisesSparsity) {
  Tensor x = Tensor::FromVector({0.5, 0.3, 0.2});
  Tensor padded = Tensor::FromVector({0.5, 0.3, 0.2, 0.0, 0.0});
  EXPECT_GT(Hoyer(padded), Hoyer(x));
}

TEST(HoyerTest, AbsVariantAgreesOnNonNegative) {
  Rng rng(2);
  Tensor x = rng.UniformTensor(Shape{8}, 0.0, 1.0);
  EXPECT_NEAR(Hoyer(x), HoyerAbs(x), 1e-12);
}

TEST(HoyerTest, EffectiveSupport) {
  EXPECT_EQ(EffectiveSupport(Tensor::FromVector({10, 0, 0, 0})), 1);
  EXPECT_EQ(EffectiveSupport(Tensor::FromVector({1, 1, 1, 1}), 0.9), 4);
  EXPECT_EQ(EffectiveSupport(Tensor::Zeros(Shape{4})), 0);
}

// ---------------------------------------------------------------------------
// Attention inversion: the paper's theorems on the model's own closed forms
// (core::BuildDhsContext + core::RecoverPVar), at ridge 0.
// ---------------------------------------------------------------------------

struct Fixture {
  Tensor z;                // n x d
  core::DhsContext ctx;
  Tensor s;                // 1 x d DHS

  static Fixture Make(Index n, Index d, std::uint64_t seed) {
    Fixture f;
    Rng rng(seed);
    f.z = rng.NormalTensor(Shape{n, d});
    ag::NoGradScope no_grad;
    f.ctx = core::BuildDhsContext(ag::Constant(f.z), 0.0);
    // True attention from a random query.
    Tensor q = rng.NormalTensor(Shape{1, d});
    Tensor logits = q.MatMul(f.z.Transposed()) *
                    (1.0 / std::sqrt(static_cast<Scalar>(d)));
    const Scalar m = logits.Max();
    Tensor p_true = logits.Map([m](Scalar x) { return std::exp(x - m); });
    p_true *= 1.0 / p_true.Sum();
    f.s = p_true.MatMul(f.z);
    return f;
  }

  Tensor Recover(PtStrategy strategy) const {
    ag::NoGradScope no_grad;
    return core::RecoverPVar(ctx, ag::Constant(s), strategy).value();
  }
  // The adaH recovery b + h A_p for the free vector h.
  Tensor RecoverAdaH(const Tensor& h) {
    ag::NoGradScope no_grad;
    core::CacheAdaHCorrection(&ctx, ag::Constant(h));
    return Recover(PtStrategy::kAdaH);
  }
  Scalar ApTotal() const { return ctx.ap_total.value().item(); }
  const Tensor& ApColsum() const { return ctx.ap_colsum.value(); }
  Tensor ExactKkt() const {
    return MaxHoyerExactKkt(z, ctx.zt_pinv.value(), s);
  }
};

TEST(AttentionInversionTest, MaxHoyerIsLeastNormOnSumConstraint) {
  // The Lagrange stationary point of Theorem 2 (Eq. 31/32) is the unique
  // least-norm element of the feasible set {p : p Z = S, Σp = 1}. Every
  // other feasible candidate (random h projected onto the sum constraint)
  // must have a norm at least as large.
  Fixture f = Fixture::Make(14, 4, 100);
  Tensor p_star = f.Recover(PtStrategy::kMaxHoyer);
  const Scalar norm_star = p_star.Norm();
  Rng rng(55);
  ASSERT_GT(std::fabs(f.ApTotal()), 1e-12);
  for (int trial = 0; trial < 30; ++trial) {
    Tensor p = f.RecoverAdaH(rng.NormalTensor(Shape{1, 14}));
    const Scalar shift = (p.Sum() - 1.0) / f.ApTotal();
    Tensor p_feasible = p - f.ApColsum().Transposed() * shift;
    ASSERT_NEAR(p_feasible.Sum(), 1.0, 1e-7);
    EXPECT_GE(p_feasible.Norm(), norm_star - 1e-9);
  }
}

TEST(AttentionInversionTest, MaxHoyerIsTheorem2StationaryPoint) {
  // Theorem 2's Lagrange solution (Eq. 31/32) is the stationary point of
  // p pᵀ on the affine feasible set {b + A_p h : J(b + A_p h) = 1}: the
  // objective gradient (= 2p) must be orthogonal to every feasible
  // direction, i.e. every dir = A_p v with sum(dir) = 0.
  Fixture f = Fixture::Make(10, 3, 6);
  Tensor p_star = f.Recover(PtStrategy::kMaxHoyer);
  Tensor ap = Tensor::Eye(10) - f.ctx.zt_pinv.value().MatMul(f.z.Transposed());
  Rng rng2(8);
  for (int trial = 0; trial < 20; ++trial) {
    Tensor v = rng2.NormalTensor(Shape{10, 1});
    Tensor dir = ap.MatMul(v);  // n x 1, in range(A_p)
    if (std::fabs(f.ApTotal()) > 1e-12) {
      const Scalar beta = dir.Sum() / f.ApTotal();
      dir -= f.ApColsum() * beta;  // remove sum component
    }
    ASSERT_NEAR(dir.Sum(), 0.0, 1e-7);
    const Scalar inner = p_star.Reshaped(Shape{10, 1}).Dot(dir);
    EXPECT_NEAR(inner, 0.0, 1e-7);
  }
}

TEST(AttentionInversionTest, ExactKktFeasibility) {
  Fixture f = Fixture::Make(8, 3, 9);
  Tensor p = f.ExactKkt();
  if (p.numel() == 0) GTEST_SKIP() << "no KKT point found for this instance";
  EXPECT_NEAR(p.Sum(), 1.0, 1e-6);
  for (Index i = 0; i < p.numel(); ++i) EXPECT_GE(p[i], -1e-7);
}

TEST(AttentionInversionTest, ExactKktAtLeastAsSparseAsFeasibleRelaxed) {
  // When the relaxed (possibly negative) solution happens to be feasible
  // (all non-negative), the exact search must achieve >= its objective.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Fixture f = Fixture::Make(8, 3, 200 + seed);
    Tensor relaxed = f.Recover(PtStrategy::kMaxHoyer);
    bool feasible = true;
    for (Index i = 0; i < relaxed.numel(); ++i)
      if (relaxed[i] < 0) feasible = false;
    if (!feasible) continue;
    Tensor exact = f.ExactKkt();
    if (exact.numel() == 0) continue;
    EXPECT_GE(exact.Dot(exact), relaxed.Dot(relaxed) - 1e-6);
  }
}

TEST(RecoverZTest, RankOneProjectorIdentity) {
  // I - M M† == pᵀ p / (p pᵀ) for M = J p - I with sum(p) = 1.
  Rng rng(13);
  Tensor raw = rng.UniformTensor(Shape{1, 7}, 0.01, 1.0);
  Tensor p = raw * (1.0 / raw.Sum());
  Tensor m(Shape{7, 7});
  for (Index i = 0; i < 7; ++i)
    for (Index j = 0; j < 7; ++j) m.at(i, j) = p[j] - (i == j ? 1.0 : 0.0);
  Tensor m_pinv = linalg::PInverse(m);
  Tensor lhs = Tensor::Eye(7) - m.MatMul(m_pinv);
  Tensor rhs = p.Transposed().MatMul(p) * (1.0 / p.Dot(p));
  EXPECT_LT((lhs - rhs).MaxAbs(), 1e-8);
}

}  // namespace
}  // namespace diffode::sparsity
