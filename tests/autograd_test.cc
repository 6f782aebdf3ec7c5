#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/ops_linalg.h"
#include "gradcheck.h"
#include "tensor/random.h"

namespace diffode {
namespace {

using ag::Var;
using testing::MaxGradError;

constexpr double kTol = 1e-6;

TEST(AutogradTest, AddSubMulGradients) {
  Rng rng(1);
  Var a = ag::Param(rng.NormalTensor(Shape{2, 3}));
  Var b = ag::Param(rng.NormalTensor(Shape{2, 3}));
  EXPECT_LT(MaxGradError(a, [&] { return ag::Sum(ag::Add(a, b)); }), kTol);
  EXPECT_LT(MaxGradError(a, [&] { return ag::Sum(ag::Sub(a, b)); }), kTol);
  EXPECT_LT(MaxGradError(a, [&] { return ag::Sum(ag::Mul(a, b)); }), kTol);
  EXPECT_LT(MaxGradError(b, [&] { return ag::Sum(ag::Mul(a, b)); }), kTol);
}

TEST(AutogradTest, ScalarOps) {
  Rng rng(3);
  Var a = ag::Param(rng.NormalTensor(Shape{3, 2}));
  EXPECT_LT(MaxGradError(a, [&] { return ag::Sum(ag::MulScalar(a, -2.5)); }),
            kTol);
  EXPECT_LT(MaxGradError(a, [&] { return ag::Sum(ag::AddScalar(a, 3.0)); }),
            kTol);
  EXPECT_LT(MaxGradError(a, [&] { return ag::Sum(ag::Neg(a)); }), kTol);
}

TEST(AutogradTest, ScalarVarOps) {
  Rng rng(4);
  Var a = ag::Param(rng.NormalTensor(Shape{2, 3}));
  Var s = ag::Param(Tensor::Full(Shape{1, 1}, 1.7));
  EXPECT_LT(
      MaxGradError(a, [&] { return ag::Sum(ag::MulByScalarVar(a, s)); }),
      kTol);
  EXPECT_LT(
      MaxGradError(s, [&] { return ag::Sum(ag::MulByScalarVar(a, s)); }),
      kTol);
}

TEST(AutogradTest, MatMulGradients) {
  Rng rng(5);
  Var a = ag::Param(rng.NormalTensor(Shape{3, 4}));
  Var b = ag::Param(rng.NormalTensor(Shape{4, 2}));
  // Weighted sum so the output gradient is non-uniform.
  Var w = ag::Constant(rng.NormalTensor(Shape{3, 2}));
  auto fn = [&] { return ag::Sum(ag::Mul(ag::MatMul(a, b), w)); };
  EXPECT_LT(MaxGradError(a, fn), kTol);
  EXPECT_LT(MaxGradError(b, fn), kTol);
}

TEST(AutogradTest, TransposeReshapeGradients) {
  Rng rng(6);
  Var a = ag::Param(rng.NormalTensor(Shape{2, 3}));
  Var w = ag::Constant(rng.NormalTensor(Shape{3, 2}));
  EXPECT_LT(
      MaxGradError(a, [&] { return ag::Sum(ag::Mul(ag::Transpose(a), w)); }),
      kTol);
  Var w2 = ag::Constant(rng.NormalTensor(Shape{6, 1}));
  EXPECT_LT(MaxGradError(a,
                         [&] {
                           return ag::Sum(
                               ag::Mul(ag::Reshape(a, Shape{6, 1}), w2));
                         }),
            kTol);
}

TEST(AutogradTest, AddRowVecGradients) {
  Rng rng(7);
  Var m = ag::Param(rng.NormalTensor(Shape{3, 4}));
  Var v = ag::Param(rng.NormalTensor(Shape{1, 4}));
  Var w = ag::Constant(rng.NormalTensor(Shape{3, 4}));
  auto fn = [&] { return ag::Sum(ag::Mul(ag::AddRowVec(m, v), w)); };
  EXPECT_LT(MaxGradError(m, fn), kTol);
  EXPECT_LT(MaxGradError(v, fn), kTol);
}

TEST(AutogradTest, SoftmaxForwardRowsSumToOne) {
  Rng rng(8);
  Var a = ag::Param(rng.NormalTensor(Shape{3, 5}));
  Var p = ag::Softmax(a);
  for (Index i = 0; i < 3; ++i) {
    Scalar row = 0.0;
    for (Index j = 0; j < 5; ++j) row += p.value().at(i, j);
    EXPECT_NEAR(row, 1.0, 1e-12);
  }
}

TEST(AutogradTest, SoftmaxGradients) {
  Rng rng(9);
  Var a = ag::Param(rng.NormalTensor(Shape{2, 4}));
  Var w = ag::Constant(rng.NormalTensor(Shape{2, 4}));
  EXPECT_LT(
      MaxGradError(a, [&] { return ag::Sum(ag::Mul(ag::Softmax(a), w)); }),
      kTol);
}

TEST(AutogradTest, NonlinearityGradients) {
  Rng rng(10);
  Var a = ag::Param(rng.NormalTensor(Shape{2, 3}));
  Var w = ag::Constant(rng.NormalTensor(Shape{2, 3}));
  EXPECT_LT(MaxGradError(a, [&] { return ag::Sum(ag::Mul(ag::Tanh(a), w)); }),
            kTol);
  EXPECT_LT(
      MaxGradError(a, [&] { return ag::Sum(ag::Mul(ag::Sigmoid(a), w)); }),
      kTol);
  EXPECT_LT(MaxGradError(a, [&] { return ag::Sum(ag::Mul(ag::Exp(a), w)); }),
            kTol);
  EXPECT_LT(MaxGradError(a, [&] { return ag::Sum(ag::Square(a)); }), kTol);
}

TEST(AutogradTest, ReluGradientAwayFromKink) {
  Var a = ag::Param(Tensor::FromRows(1, 4, {-2.0, -0.5, 0.5, 2.0}));
  EXPECT_LT(MaxGradError(a, [&] { return ag::Sum(ag::Relu(a)); }), kTol);
}

TEST(AutogradTest, ReductionGradients) {
  Rng rng(12);
  Var a = ag::Param(rng.NormalTensor(Shape{3, 3}));
  Var b = ag::Param(rng.NormalTensor(Shape{3, 3}));
  EXPECT_LT(MaxGradError(a, [&] { return ag::Mean(a); }), kTol);
  EXPECT_LT(MaxGradError(a, [&] { return ag::Dot(a, b); }), kTol);
  EXPECT_LT(MaxGradError(b, [&] { return ag::Dot(a, b); }), kTol);
}

TEST(AutogradTest, ConcatSliceGradients) {
  Rng rng(13);
  Var a = ag::Param(rng.NormalTensor(Shape{2, 2}));
  Var b = ag::Param(rng.NormalTensor(Shape{2, 3}));
  Var w = ag::Constant(rng.NormalTensor(Shape{2, 5}));
  auto cat_fn = [&] {
    return ag::Sum(ag::Mul(ag::ConcatCols({a, b}), w));
  };
  EXPECT_LT(MaxGradError(a, cat_fn), kTol);
  EXPECT_LT(MaxGradError(b, cat_fn), kTol);
  Var c = ag::Param(rng.NormalTensor(Shape{1, 2}));
  Var wr = ag::Constant(rng.NormalTensor(Shape{3, 2}));
  auto cat_rows_fn = [&] {
    return ag::Sum(ag::Mul(ag::ConcatRows({a, c}), wr));
  };
  EXPECT_LT(MaxGradError(a, cat_rows_fn), kTol);
  EXPECT_LT(MaxGradError(c, cat_rows_fn), kTol);
  Var ws = ag::Constant(rng.NormalTensor(Shape{2, 2}));
  EXPECT_LT(MaxGradError(b,
                         [&] {
                           return ag::Sum(
                               ag::Mul(ag::SliceCols(b, 1, 2), ws));
                         }),
            kTol);
  Var wrow = ag::Constant(rng.NormalTensor(Shape{1, 2}));
  EXPECT_LT(MaxGradError(a,
                         [&] {
                           return ag::Sum(
                               ag::Mul(ag::SliceRows(a, 1, 1), wrow));
                         }),
            kTol);
}

TEST(AutogradTest, MseLossGradient) {
  Rng rng(14);
  Var pred = ag::Param(rng.NormalTensor(Shape{3, 2}));
  Tensor target = rng.NormalTensor(Shape{3, 2});
  EXPECT_LT(MaxGradError(pred, [&] { return ag::MseLoss(pred, target); }),
            kTol);
}

TEST(AutogradTest, MaskedMseLossGradientAndValue) {
  Var pred = ag::Param(Tensor::FromRows(2, 2, {1, 2, 3, 4}));
  Tensor target = Tensor::FromRows(2, 2, {0, 2, 3, 0});
  Tensor mask = Tensor::FromRows(2, 2, {1, 1, 0, 1});
  Var loss = ag::MaskedMseLoss(pred, target, mask);
  // Errors: (1-0)^2=1 observed, (2-2)^2=0 observed, (3-3) masked out,
  // (4-0)^2=16 observed -> mean over 3 = 17/3.
  EXPECT_NEAR(loss.value().item(), 17.0 / 3.0, 1e-12);
  EXPECT_LT(
      MaxGradError(pred, [&] { return ag::MaskedMseLoss(pred, target, mask); }),
      kTol);
}

TEST(AutogradTest, SoftmaxCrossEntropyGradient) {
  Rng rng(15);
  Var logits = ag::Param(rng.NormalTensor(Shape{3, 4}));
  std::vector<Index> labels = {2, 0, 3};
  EXPECT_LT(MaxGradError(
                logits, [&] { return ag::SoftmaxCrossEntropy(logits, labels); }),
            kTol);
}

TEST(AutogradTest, SoftmaxCrossEntropyMatchesManual) {
  Var logits = ag::Constant(Tensor::FromRows(1, 2, {0.0, 0.0}));
  Var loss = ag::SoftmaxCrossEntropy(logits, {1});
  EXPECT_NEAR(loss.value().item(), std::log(2.0), 1e-12);
}

TEST(AutogradTest, InverseGradient) {
  Rng rng(16);
  // Well-conditioned matrix: diag-dominant.
  Tensor m = rng.NormalTensor(Shape{3, 3}, 0.0, 0.3);
  for (Index i = 0; i < 3; ++i) m.at(i, i) += 2.0;
  Var a = ag::Param(m);
  Var w = ag::Constant(rng.NormalTensor(Shape{3, 3}));
  EXPECT_LT(
      MaxGradError(a,
                   [&] { return ag::Sum(ag::Mul(ag::RidgeInverse(a, 0.0), w)); }),
      1e-5);
}

TEST(AutogradTest, RidgeInverseMatchesShiftedInverse) {
  Rng rng(17);
  Tensor m = rng.NormalTensor(Shape{3, 3}, 0.0, 0.5);
  Var a = ag::Param(m);
  Var inv = ag::RidgeInverse(a, 2.0);
  Tensor shifted = m;
  for (Index i = 0; i < 3; ++i) shifted.at(i, i) += 2.0;
  Tensor product = shifted.MatMul(inv.value());
  EXPECT_LT((product - Tensor::Eye(3)).MaxAbs(), 1e-9);
}

TEST(AutogradTest, GradientAccumulationAcrossBackwardCalls) {
  Var a = ag::Param(Tensor::FromRows(1, 1, {3.0}));
  ag::Sum(ag::Square(a)).Backward();
  ag::Sum(ag::Square(a)).Backward();
  // d/da a^2 = 6 per pass; two passes accumulate to 12.
  EXPECT_NEAR(a.grad()[0], 12.0, 1e-12);
  a.ZeroGrad();
  EXPECT_EQ(a.grad()[0], 0.0);
}

TEST(AutogradTest, DiamondGraphGradient) {
  // y = (a*a) + (a*a) reuses the same intermediate twice.
  Var a = ag::Param(Tensor::FromRows(1, 1, {2.0}));
  Var sq = ag::Square(a);
  Var y = ag::Sum(ag::Add(sq, sq));
  y.Backward();
  EXPECT_NEAR(a.grad()[0], 8.0, 1e-12);  // d/da 2a^2 = 4a
}

TEST(AutogradTest, ChainedCompositeGradient) {
  Rng rng(18);
  Var a = ag::Param(rng.NormalTensor(Shape{2, 3}));
  Var b = ag::Param(rng.NormalTensor(Shape{3, 2}));
  auto fn = [&] {
    ag::Var h = ag::Tanh(ag::MatMul(a, b));
    ag::Var p = ag::Softmax(h);
    return ag::Mean(ag::Square(p));
  };
  EXPECT_LT(MaxGradError(a, fn), kTol);
  EXPECT_LT(MaxGradError(b, fn), kTol);
}

}  // namespace
}  // namespace diffode
