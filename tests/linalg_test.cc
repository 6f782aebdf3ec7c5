#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

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

// The solver as it was written before its raw-pointer rewrite: bounds-checked
// element access and back substitution one right-hand side at a time. The
// rewrite must keep every element's subtractions and division, so it is
// pinned bitwise against this copy.
Tensor ReferenceSolve(const Tensor& a, const Tensor& b) {
  const Index n = a.rows();
  Tensor lu = a;
  Tensor x = b;
  for (Index k = 0; k < n; ++k) {
    Index pivot = k;
    Scalar best = std::fabs(lu.at(k, k));
    for (Index i = k + 1; i < n; ++i) {
      const Scalar v = std::fabs(lu.at(i, k));
      if (v > best) {
        best = v;
        pivot = i;
      }
    }
    if (pivot != k) {
      for (Index j = 0; j < n; ++j) std::swap(lu.at(k, j), lu.at(pivot, j));
      for (Index j = 0; j < x.cols(); ++j)
        std::swap(x.at(k, j), x.at(pivot, j));
    }
    const Scalar inv = 1.0 / lu.at(k, k);
    for (Index i = k + 1; i < n; ++i) {
      const Scalar factor = lu.at(i, k) * inv;
      if (factor == 0.0) continue;
      lu.at(i, k) = factor;
      for (Index j = k + 1; j < n; ++j) lu.at(i, j) -= factor * lu.at(k, j);
      for (Index j = 0; j < x.cols(); ++j) x.at(i, j) -= factor * x.at(k, j);
    }
  }
  for (Index c = 0; c < x.cols(); ++c) {
    for (Index i = n - 1; i >= 0; --i) {
      Scalar s = x.at(i, c);
      for (Index j = i + 1; j < n; ++j) s -= lu.at(i, j) * x.at(j, c);
      x.at(i, c) = s / lu.at(i, i);
    }
  }
  return x;
}

void ExpectBitwise(const Tensor& a, const Tensor& b) {
  ASSERT_TRUE(a.shape() == b.shape());
  for (Index i = 0; i < a.numel(); ++i) {
    std::uint64_t ia, ib;
    const Scalar av = a[i], bv = b[i];
    std::memcpy(&ia, &av, sizeof(ia));
    std::memcpy(&ib, &bv, sizeof(ib));
    EXPECT_EQ(ia, ib) << "i=" << i;
  }
}

TEST(LuTest, SolveAndInverseAreBitwiseTheReferenceLoop) {
  Rng rng(11);
  for (Index n : {1, 5, 16, 17}) {
    // A Gram plus a ridge, as DHS inverts, and a general matrix.
    const Tensor z = rng.NormalTensor(Shape{n + 3, n});
    Tensor gram = z.Transposed().MatMul(z);
    for (Index i = 0; i < n; ++i) gram.at(i, i) += 1e-6;
    ExpectBitwise(Inverse(gram), ReferenceSolve(gram, Tensor::Eye(n)));
    const Tensor a = rng.NormalTensor(Shape{n, n});
    ExpectBitwise(Inverse(a), ReferenceSolve(a, Tensor::Eye(n)));
    const Tensor b = rng.NormalTensor(Shape{n, 3});
    ExpectBitwise(Solve(a, b), ReferenceSolve(a, b));
  }
  // Zeros on the leading diagonal force row swaps at every step.
  const Tensor perm = Tensor::FromRows(3, 3, {0, 2, 1, 3, 0, 1, 1, 1, 0});
  const Tensor rhs = Tensor::FromRows(3, 2, {1, -2, 0.5, 3, -1, 7});
  ExpectBitwise(Solve(perm, rhs), ReferenceSolve(perm, rhs));
  ExpectBitwise(Inverse(perm), ReferenceSolve(perm, Tensor::Eye(3)));
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
