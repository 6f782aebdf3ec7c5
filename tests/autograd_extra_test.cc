// Additional autograd coverage: the sine op, seeding, graph-structure edge
// cases, and requires_grad propagation rules.

#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.h"
#include "gradcheck.h"
#include "tensor/random.h"

namespace diffode::ag {
namespace {

using testing::MaxGradError;

TEST(AutogradExtraTest, SinForward) {
  Tensor x = Tensor::FromRows(1, 3, {0.0, 1.0, -2.0});
  Tensor s = Sin(Constant(x)).value();
  for (Index i = 0; i < 3; ++i) EXPECT_NEAR(s[i], std::sin(x[i]), 1e-15);
}

TEST(AutogradExtraTest, SinGradient) {
  Rng rng(1);
  Var a = Param(rng.NormalTensor(Shape{2, 3}));
  Var w = Constant(rng.NormalTensor(Shape{2, 3}));
  EXPECT_LT(MaxGradError(a, [&] { return Sum(Mul(Sin(a), w)); }), 1e-6);
}

TEST(AutogradExtraTest, BackwardWithCustomSeed) {
  Var a = Param(Tensor::FromRows(1, 2, {1.0, 2.0}));
  Var y = MulScalar(a, 3.0);
  Tensor seed = Tensor::FromRows(1, 2, {10.0, -1.0});
  y.Backward(seed);
  EXPECT_DOUBLE_EQ(a.grad()[0], 30.0);
  EXPECT_DOUBLE_EQ(a.grad()[1], -3.0);
}

TEST(AutogradExtraTest, ConstantsReceiveNoBackwardFn) {
  Var a = Constant(Tensor::Ones(Shape{1, 2}));
  Var b = Constant(Tensor::Ones(Shape{1, 2}));
  Var y = Add(a, b);
  // Adding two constants yields a node that doesn't require grad.
  EXPECT_FALSE(y.requires_grad());
}

TEST(AutogradExtraTest, RequiresGradPropagatesThroughMixedGraph) {
  Var a = Constant(Tensor::Ones(Shape{1, 2}));
  Var p = Param(Tensor::Ones(Shape{1, 2}));
  EXPECT_TRUE(Add(a, p).requires_grad());
  EXPECT_TRUE(Mul(Add(a, p), a).requires_grad());
}

TEST(AutogradExtraTest, LongChainGradient) {
  // 60 chained tanh layers: gradients must stay finite and correct.
  Var x = Param(Tensor::Full(Shape{1, 1}, 0.3));
  auto fn = [&] {
    Var h = x;
    for (int i = 0; i < 60; ++i) h = Tanh(MulScalar(h, 1.1));
    return Sum(h);
  };
  EXPECT_LT(MaxGradError(x, fn), 1e-5);
}

TEST(AutogradExtraTest, WideFanOutAccumulates) {
  // One leaf feeding 20 consumers: gradient is the sum of all paths.
  Var x = Param(Tensor::Full(Shape{1, 1}, 2.0));
  std::vector<Var> terms;
  for (int i = 0; i < 20; ++i) terms.push_back(MulScalar(x, 1.0));
  Var y = terms[0];
  for (std::size_t i = 1; i < terms.size(); ++i) y = Add(y, terms[i]);
  Sum(y).Backward();
  EXPECT_NEAR(x.grad()[0], 20.0, 1e-12);
}

TEST(AutogradExtraTest, TransposeOfTransposeGradient) {
  Rng rng(3);
  Var a = Param(rng.NormalTensor(Shape{3, 2}));
  Var w = Constant(rng.NormalTensor(Shape{3, 2}));
  EXPECT_LT(MaxGradError(
                a,
                [&] {
                  return Sum(Mul(Transpose(Transpose(a)), w));
                }),
            1e-6);
}

TEST(AutogradExtraTest, SliceOfConcatRoundTrip) {
  Rng rng(4);
  Var a = Param(rng.NormalTensor(Shape{2, 3}));
  Var b = Param(rng.NormalTensor(Shape{2, 2}));
  Var cat = ConcatCols({a, b});
  Var back_a = SliceCols(cat, 0, 3);
  EXPECT_LT((back_a.value() - a.value()).MaxAbs(), 1e-15);
  Sum(back_a).Backward();
  EXPECT_DOUBLE_EQ(a.grad().Sum(), 6.0);  // ones everywhere
  EXPECT_DOUBLE_EQ(b.grad().Sum(), 0.0);  // not on the path
}

TEST(AutogradExtraTest, ZeroGradResetsBetweenSteps) {
  Var a = Param(Tensor::Full(Shape{1, 1}, 1.0));
  Sum(Square(a)).Backward();
  EXPECT_DOUBLE_EQ(a.grad()[0], 2.0);
  a.ZeroGrad();
  Sum(Square(a)).Backward();
  EXPECT_DOUBLE_EQ(a.grad()[0], 2.0);
}

TEST(AutogradExtraTest, DetachedValueMutationAffectsNextForward) {
  Var a = Param(Tensor::Full(Shape{1, 1}, 1.0));
  EXPECT_DOUBLE_EQ(Sum(Square(a)).value().item(), 1.0);
  a.mutable_value()[0] = 3.0;
  EXPECT_DOUBLE_EQ(Sum(Square(a)).value().item(), 9.0);
}

TEST(AutogradExtraTest, SoftmaxTranslationInvariance) {
  Rng rng(5);
  Tensor logits = rng.NormalTensor(Shape{2, 4});
  Tensor shifted = logits + 100.0;
  Tensor p1 = Softmax(Constant(logits)).value();
  Tensor p2 = Softmax(Constant(shifted)).value();
  EXPECT_LT((p1 - p2).MaxAbs(), 1e-12);
}

TEST(AutogradExtraTest, SoftmaxExtremeLogitsStable) {
  Tensor logits = Tensor::FromRows(1, 3, {1000.0, -1000.0, 999.0});
  Tensor p = Softmax(Constant(logits)).value();
  EXPECT_TRUE(p.AllFinite());
  EXPECT_NEAR(p.Sum(), 1.0, 1e-12);
  EXPECT_GT(p[0], p[2]);
}

TEST(AutogradExtraTest, CrossEntropyIgnoresConstantShift) {
  Rng rng(6);
  Tensor logits = rng.NormalTensor(Shape{2, 3});
  Var v1 = Constant(logits);
  Var v2 = Constant(logits + 5.0);
  std::vector<Index> labels = {1, 2};
  EXPECT_NEAR(SoftmaxCrossEntropy(v1, labels).value().item(),
              SoftmaxCrossEntropy(v2, labels).value().item(), 1e-12);
}

}  // namespace
}  // namespace diffode::ag
