#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "linalg/pinv.h"
#include "sparsity/attention_image.h"
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
// Attention inversion.
// ---------------------------------------------------------------------------

struct Fixture {
  Tensor z;                // n x d
  AttentionInverse inv;
  Tensor p_true;           // 1 x n softmax attention
  Tensor s;                // 1 x d DHS

  static Fixture Make(Index n, Index d, std::uint64_t seed) {
    Fixture f;
    Rng rng(seed);
    f.z = rng.NormalTensor(Shape{n, d});
    f.inv = AttentionInverse::Build(f.z, 0.0);
    // True attention from a random query.
    Tensor q = rng.NormalTensor(Shape{1, d});
    Tensor logits = q.MatMul(f.z.Transposed()) *
                    (1.0 / std::sqrt(static_cast<Scalar>(d)));
    const Scalar m = logits.Max();
    f.p_true = logits.Map([m](Scalar x) { return std::exp(x - m); });
    f.p_true *= 1.0 / f.p_true.Sum();
    f.s = f.p_true.MatMul(f.z);
    return f;
  }
};

TEST(AttentionInverseTest, PinvMatchesPaperIdentity) {
  Fixture f = Fixture::Make(12, 4, 3);
  // (Zᵀ)† Zᵀ should be a projector (idempotent, symmetric).
  Tensor proj = f.inv.zt_pinv.MatMul(f.z.Transposed());
  EXPECT_LT((proj.MatMul(proj) - proj).MaxAbs(), 1e-8);
  EXPECT_LT((proj - proj.Transposed()).MaxAbs(), 1e-8);
}

TEST(AttentionInverseTest, AllStrategiesReproduceS) {
  // Any admissible p must satisfy p Z = S: the recovery is a right inverse.
  Fixture f = Fixture::Make(12, 4, 4);
  for (PtStrategy strategy :
       {PtStrategy::kMinNorm, PtStrategy::kMaxHoyer, PtStrategy::kAdaH}) {
    Rng rng(99);
    Tensor h = rng.NormalTensor(Shape{1, 12});
    Tensor p = RecoverP(f.inv, f.s, strategy, &h);
    Tensor s_rec = p.MatMul(f.z);
    EXPECT_LT((s_rec - f.s).MaxAbs(), 1e-8)
        << "strategy " << static_cast<int>(strategy);
  }
}

TEST(AttentionInverseTest, MaxHoyerSumsToOne) {
  Fixture f = Fixture::Make(15, 5, 5);
  Tensor p = RecoverP(f.inv, f.s, PtStrategy::kMaxHoyer);
  EXPECT_NEAR(p.Sum(), 1.0, 1e-8);
}

TEST(AttentionInverseTest, MaxHoyerIsLeastNormOnSumConstraint) {
  // The Lagrange stationary point of Theorem 2 (Eq. 31/32) is the unique
  // least-norm element of the feasible set {p : p Z = S, Σp = 1}. Every
  // other feasible candidate (random h projected onto the sum constraint)
  // must have a norm at least as large.
  Fixture f = Fixture::Make(14, 4, 100);
  Tensor p_star = RecoverP(f.inv, f.s, PtStrategy::kMaxHoyer);
  const Scalar norm_star = p_star.Norm();
  Rng rng(55);
  for (int trial = 0; trial < 30; ++trial) {
    Tensor h = rng.NormalTensor(Shape{1, 14});
    Tensor p = RecoverP(f.inv, f.s, PtStrategy::kAdaH, &h);
    ASSERT_GT(std::fabs(f.inv.ap_total), 1e-12);
    const Scalar shift = (p.Sum() - 1.0) / f.inv.ap_total;
    Tensor p_feasible = p - f.inv.ap_colsum.Transposed() * shift;
    ASSERT_NEAR(p_feasible.Sum(), 1.0, 1e-7);
    EXPECT_GE(p_feasible.Norm(), norm_star - 1e-9);
  }
}

TEST(AttentionInverseTest, MaxHoyerIsTheorem2StationaryPoint) {
  // Theorem 2's Lagrange solution (Eq. 31/32) is the stationary point of
  // p pᵀ on the affine feasible set {b + A_p h : J(b + A_p h) = 1}: the
  // objective gradient (= 2p) must be orthogonal to every feasible
  // direction, i.e. every dir = A_p v with sum(dir) = 0.
  Fixture f = Fixture::Make(10, 3, 6);
  Tensor p_star = RecoverP(f.inv, f.s, PtStrategy::kMaxHoyer);
  Tensor ap = Tensor::Eye(10) - f.inv.zt_pinv.MatMul(f.z.Transposed());
  Rng rng2(8);
  for (int trial = 0; trial < 20; ++trial) {
    Tensor v = rng2.NormalTensor(Shape{10, 1});
    Tensor dir = ap.MatMul(v);  // n x 1, in range(A_p)
    if (std::fabs(f.inv.ap_total) > 1e-12) {
      const Scalar beta = dir.Sum() / f.inv.ap_total;
      dir -= f.inv.ap_colsum * beta;  // remove sum component
    }
    ASSERT_NEAR(dir.Sum(), 0.0, 1e-7);
    const Scalar inner = p_star.Reshaped(Shape{10, 1}).Dot(dir);
    EXPECT_NEAR(inner, 0.0, 1e-7);
  }
}

TEST(AttentionInverseTest, ExactKktFeasibility) {
  Fixture f = Fixture::Make(8, 3, 9);
  Tensor p = MaxHoyerExactKkt(f.inv, f.s);
  if (p.numel() == 0) GTEST_SKIP() << "no KKT point found for this instance";
  EXPECT_NEAR(p.Sum(), 1.0, 1e-6);
  for (Index i = 0; i < p.numel(); ++i) EXPECT_GE(p[i], -1e-7);
}

TEST(AttentionInverseTest, ExactKktAtLeastAsSparseAsFeasibleRelaxed) {
  // When the relaxed (possibly negative) solution happens to be feasible
  // (all non-negative), the exact search must achieve >= its objective.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Fixture f = Fixture::Make(8, 3, 200 + seed);
    Tensor relaxed = RecoverP(f.inv, f.s, PtStrategy::kMaxHoyer);
    bool feasible = true;
    for (Index i = 0; i < relaxed.numel(); ++i)
      if (relaxed[i] < 0) feasible = false;
    if (!feasible) continue;
    Tensor exact = MaxHoyerExactKkt(f.inv, f.s);
    if (exact.numel() == 0) continue;
    EXPECT_GE(exact.Dot(exact), relaxed.Dot(relaxed) - 1e-6);
  }
}

TEST(RecoverZTest, FastPathMatchesSvdReference) {
  Fixture f = Fixture::Make(9, 3, 11);
  Rng rng(12);
  Tensor h2 = rng.NormalTensor(Shape{1, 9});
  Tensor fast = RecoverZ(f.inv, f.p_true, h2);
  Tensor reference = RecoverZReference(f.z, f.p_true, h2);
  EXPECT_LT((fast - reference).MaxAbs(), 1e-6);
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

// ---------------------------------------------------------------------------
// Fig. 3 export: attention rows as a gray-scale PGM.
// ---------------------------------------------------------------------------

TEST(AttentionImageTest, WritesValidPgm) {
  Rng rng(1);
  std::vector<Tensor> rows;
  for (int i = 0; i < 5; ++i)
    rows.push_back(rng.UniformTensor(Shape{1, 8}, 0.0, 1.0));
  const std::string path = ::testing::TempDir() + "/attn.pgm";
  ASSERT_TRUE(WriteAttentionPgm(rows, path, 2));
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  int w = 0, h = 0, maxval = 0;
  in >> w >> h >> maxval;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(w, 16);
  EXPECT_EQ(h, 10);
  EXPECT_EQ(maxval, 255);
  in.get();  // single whitespace after header
  std::vector<char> pixels(static_cast<std::size_t>(w * h));
  in.read(pixels.data(), w * h);
  EXPECT_EQ(in.gcount(), w * h);
  std::remove(path.c_str());
}

TEST(AttentionImageTest, RejectsMismatchedRows) {
  std::vector<Tensor> rows = {Tensor::Ones(Shape{1, 4}),
                              Tensor::Ones(Shape{1, 5})};
  EXPECT_FALSE(WriteAttentionPgm(rows, ::testing::TempDir() + "/bad.pgm"));
  EXPECT_FALSE(WriteAttentionPgm({}, ::testing::TempDir() + "/never.pgm"));
}

}  // namespace
}  // namespace diffode::sparsity
