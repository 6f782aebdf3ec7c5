#include <gtest/gtest.h>

#include "linalg/lu.h"
#include "linalg/pinv.h"
#include "linalg/svd.h"
#include "tensor/random.h"

namespace diffode::linalg {
namespace {

TEST(LuTest, SolveResidualAndMultiRhs) {
  Rng rng(3);
  Tensor a = rng.NormalTensor(Shape{7, 7});
  for (Index i = 0; i < 7; ++i) a.at(i, i) += 3.0;
  Tensor b = rng.NormalTensor(Shape{7, 3});
  Tensor x = Solve(a, b);
  EXPECT_LT((a.MatMul(x) - b).MaxAbs(), 1e-9);
}

TEST(LuTest, SolveNeedsPivoting) {
  // Zero on the leading diagonal forces a row swap.
  Tensor a = Tensor::FromRows(2, 2, {0, 1, 1, 0});
  Tensor b = Tensor::FromRows(2, 1, {2, 3});
  Tensor x = Solve(a, b);
  EXPECT_NEAR(x.at(0, 0), 3.0, 1e-12);
  EXPECT_NEAR(x.at(1, 0), 2.0, 1e-12);
}

TEST(LuTest, TrySolveReportsPivotBelowFloor) {
  // A rank-1 matrix fails the floor; a regular one solves exactly as Solve.
  Tensor b = Tensor::FromRows(2, 1, {1, 2});
  Tensor x;
  EXPECT_FALSE(TrySolve(Tensor::FromRows(2, 2, {1, 2, 2, 4}), b, 1e-12, &x));
  Tensor a = Tensor::FromRows(2, 2, {0, 1, 1, 0});
  ASSERT_TRUE(TrySolve(a, b, 1e-12, &x));
  EXPECT_EQ((x - Solve(a, b)).MaxAbs(), 0.0);
}

TEST(LuTest, InverseIdentity) {
  Rng rng(4);
  Tensor a = rng.NormalTensor(Shape{5, 5});
  for (Index i = 0; i < 5; ++i) a.at(i, i) += 4.0;
  Tensor inv = Inverse(a);
  EXPECT_LT((a.MatMul(inv) - Tensor::Eye(5)).MaxAbs(), 1e-9);
  EXPECT_LT((inv.MatMul(a) - Tensor::Eye(5)).MaxAbs(), 1e-9);
}

TEST(SvdTest, ReconstructionAndOrthogonality) {
  Rng rng(7);
  Tensor a = rng.NormalTensor(Shape{6, 4});
  SvdResult svd = Svd(a);
  // Reconstruct U diag(sigma) Vᵀ.
  Tensor us = svd.u;
  for (Index j = 0; j < 4; ++j)
    for (Index i = 0; i < 6; ++i) us.at(i, j) *= svd.sigma[j];
  EXPECT_LT((us.MatMul(svd.v.Transposed()) - a).MaxAbs(), 1e-9);
  EXPECT_LT((svd.u.Transposed().MatMul(svd.u) - Tensor::Eye(4)).MaxAbs(),
            1e-9);
  EXPECT_LT((svd.v.Transposed().MatMul(svd.v) - Tensor::Eye(4)).MaxAbs(),
            1e-9);
  // Descending singular values.
  for (Index j = 1; j < 4; ++j) EXPECT_GE(svd.sigma[j - 1], svd.sigma[j]);
}

TEST(SvdTest, KnownSingularValues) {
  // diag(3, 2) embedded in a 3x2 matrix.
  Tensor a = Tensor::FromRows(3, 2, {3, 0, 0, 2, 0, 0});
  SvdResult svd = Svd(a);
  EXPECT_NEAR(svd.sigma[0], 3.0, 1e-12);
  EXPECT_NEAR(svd.sigma[1], 2.0, 1e-12);
}

// The four Moore-Penrose conditions from the paper's Definition 1.
void CheckMoorePenrose(const Tensor& a, const Tensor& g, Scalar tol) {
  EXPECT_LT((a.MatMul(g).MatMul(a) - a).MaxAbs(), tol);            // (i)
  EXPECT_LT((g.MatMul(a).MatMul(g) - g).MaxAbs(), tol);            // (ii)
  Tensor ag = a.MatMul(g);
  EXPECT_LT((ag - ag.Transposed()).MaxAbs(), tol);                 // (iii)
  Tensor ga = g.MatMul(a);
  EXPECT_LT((ga - ga.Transposed()).MaxAbs(), tol);                 // (iv)
}

TEST(PinvTest, MoorePenroseConditionsTall) {
  Rng rng(9);
  Tensor a = rng.NormalTensor(Shape{7, 3});
  CheckMoorePenrose(a, PInverse(a), 1e-9);
}

TEST(PinvTest, MoorePenroseConditionsWide) {
  Rng rng(10);
  Tensor a = rng.NormalTensor(Shape{3, 7});
  CheckMoorePenrose(a, PInverse(a), 1e-9);
}

TEST(PinvTest, MoorePenroseConditionsRankDeficient) {
  Rng rng(11);
  Tensor u = rng.NormalTensor(Shape{6, 2});
  Tensor v = rng.NormalTensor(Shape{2, 6});
  Tensor a = u.MatMul(v);  // rank 2, 6x6
  CheckMoorePenrose(a, PInverse(a), 1e-8);
}

TEST(PinvTest, InvertibleMatrixMatchesInverse) {
  Rng rng(12);
  Tensor a = rng.NormalTensor(Shape{4, 4});
  for (Index i = 0; i < 4; ++i) a.at(i, i) += 3.0;
  EXPECT_LT((PInverse(a) - Inverse(a)).MaxAbs(), 1e-8);
}

TEST(PinvTest, PaperIdentityForZt) {
  // The paper's claim: for Zᵀ (d x n, full row rank), (Zᵀ)† = Z (ZᵀZ)^{-1}.
  Rng rng(14);
  Tensor z = rng.NormalTensor(Shape{10, 4});  // n x d
  Tensor zt = z.Transposed();
  Tensor gram_inv = Inverse(zt.MatMul(z));
  Tensor closed_form = z.MatMul(gram_inv);
  EXPECT_LT((closed_form - PInverse(zt)).MaxAbs(), 1e-8);
}

}  // namespace
}  // namespace diffode::linalg
