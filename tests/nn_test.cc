#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.h"
#include "gradcheck.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "tensor/random.h"

namespace diffode::nn {
namespace {

TEST(LinearTest, ForwardShapeAndBias) {
  Rng rng(1);
  Linear layer(3, 2, rng);
  ag::Var x = ag::Constant(Tensor::Zeros(Shape{4, 3}));
  ag::Var y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 4);
  EXPECT_EQ(y.cols(), 2);
  // Zero input -> bias rows; bias initialized to zero.
  EXPECT_EQ(y.value().MaxAbs(), 0.0);
}

TEST(LinearTest, GradientsFlowToParameters) {
  Rng rng(2);
  Linear layer(3, 2, rng);
  ag::Var x = ag::Constant(rng.NormalTensor(Shape{2, 3}));
  ag::Var loss = ag::Mean(ag::Square(layer.Forward(x)));
  loss.Backward();
  auto params = layer.Params();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_GT(params[0].grad().MaxAbs(), 0.0);  // weight
  EXPECT_GT(params[1].grad().MaxAbs(), 0.0);  // bias
}

TEST(MlpTest, HiddenActivationBoundsOutputGrowth) {
  Rng rng(3);
  Mlp mlp({2, 8, 1}, rng, Activation::kTanh);
  // With tanh hidden units the output is a bounded-weight combination:
  // scaling the input by 1e3 cannot scale the output by 1e3.
  ag::Var x1 = ag::Constant(Tensor::FromRows(1, 2, {1.0, -1.0}));
  ag::Var x2 = ag::Constant(Tensor::FromRows(1, 2, {1e3, -1e3}));
  const Scalar y1 = std::fabs(mlp.Forward(x1).value().item());
  const Scalar y2 = std::fabs(mlp.Forward(x2).value().item());
  EXPECT_LT(y2, 1e3 * std::max(y1, 1e-3));
}

TEST(MlpTest, ParameterCount) {
  Rng rng(4);
  Mlp mlp({3, 5, 2}, rng);
  // (3*5 + 5) + (5*2 + 2) = 32.
  Index count = 0;
  for (const auto& p : mlp.Params()) count += p.value().numel();
  EXPECT_EQ(count, 32);
}

TEST(MlpTest, GradCheckThroughTwoLayers) {
  Rng rng(5);
  Mlp mlp({2, 4, 1}, rng);
  ag::Var x = ag::Param(rng.NormalTensor(Shape{1, 2}));
  EXPECT_LT(testing::MaxGradError(
                x, [&] { return ag::Sum(mlp.Forward(x)); }),
            1e-5);
}

TEST(GruCellTest, OutputBounded) {
  Rng rng(6);
  GruCell cell(3, 4, rng);
  ag::Var h = cell.InitialState(1);
  ag::Var x = ag::Constant(rng.NormalTensor(Shape{1, 3}, 0.0, 10.0));
  for (int step = 0; step < 50; ++step) h = cell.Forward(x, h);
  // h is a convex combination of tanh candidates: |h| <= 1 always.
  EXPECT_LE(h.value().MaxAbs(), 1.0 + 1e-12);
}

TEST(GruCellTest, StateUpdatesWithInput) {
  Rng rng(7);
  GruCell cell(2, 4, rng);
  ag::Var h0 = cell.InitialState(1);
  ag::Var x = ag::Constant(rng.NormalTensor(Shape{1, 2}));
  ag::Var h1 = cell.Forward(x, h0);
  EXPECT_GT((h1.value() - h0.value()).MaxAbs(), 0.0);
}

TEST(GruCellTest, GradientsReachBothWeightSets) {
  Rng rng(8);
  GruCell cell(2, 3, rng);
  ag::Var h = cell.InitialState(1);
  ag::Var x = ag::Constant(rng.NormalTensor(Shape{1, 2}));
  h = cell.Forward(x, h);
  h = cell.Forward(x, h);  // two steps so recurrent weights matter
  ag::Var loss = ag::Mean(ag::Square(h));
  loss.Backward();
  for (auto& p : cell.Params()) EXPECT_GT(p.grad().MaxAbs(), 0.0);
}

// ---------------------------------------------------------------------------
// Optimizers: each must minimize a simple convex quadratic.
// ---------------------------------------------------------------------------

Scalar MinimizeQuadratic(Optimizer& opt, ag::Var& x, int steps) {
  const Tensor target = Tensor::FromRows(1, 2, {3.0, -1.0});
  Scalar loss_value = 0.0;
  for (int i = 0; i < steps; ++i) {
    ag::Var loss = ag::MseLoss(x, target);
    loss_value = loss.value().item();
    loss.Backward();
    opt.StepAndZero();
  }
  return loss_value;
}

TEST(OptimizerTest, SgdConverges) {
  ag::Var x = ag::Param(Tensor::Zeros(Shape{1, 2}));
  Sgd opt({x}, 0.2);
  EXPECT_LT(MinimizeQuadratic(opt, x, 100), 1e-6);
}

TEST(OptimizerTest, SgdMomentumConverges) {
  ag::Var x = ag::Param(Tensor::Zeros(Shape{1, 2}));
  Sgd opt({x}, 0.05, 0.9);
  EXPECT_LT(MinimizeQuadratic(opt, x, 150), 1e-6);
}

TEST(OptimizerTest, AdamConverges) {
  ag::Var x = ag::Param(Tensor::Zeros(Shape{1, 2}));
  Adam opt({x}, 0.1);
  EXPECT_LT(MinimizeQuadratic(opt, x, 200), 1e-5);
}

TEST(OptimizerTest, WeightDecayShrinksUnusedParameter) {
  // A parameter with zero task gradient should decay toward zero.
  ag::Var used = ag::Param(Tensor::Zeros(Shape{1, 1}));
  ag::Var unused = ag::Param(Tensor::Full(Shape{1, 1}, 5.0));
  Adam opt({used, unused}, 0.05, /*weight_decay=*/0.1);
  const Tensor target = Tensor::Full(Shape{1, 1}, 1.0);
  for (int i = 0; i < 100; ++i) {
    ag::Var loss = ag::MseLoss(used, target);
    loss.Backward();
    unused.grad();  // ensure allocated
    opt.StepAndZero();
  }
  EXPECT_LT(std::fabs(unused.value().item()), 4.0);
}

TEST(OptimizerTest, ClipGradNorm) {
  ag::Var x = ag::Param(Tensor::Zeros(Shape{1, 4}));
  Adam opt({x}, 0.1);
  x.grad() = Tensor::Full(Shape{1, 4}, 100.0);
  opt.ClipGradNorm(1.0);
  EXPECT_NEAR(x.grad().Norm(), 1.0, 1e-9);
  // A small gradient is left untouched.
  x.grad() = Tensor::Full(Shape{1, 4}, 0.01);
  opt.ClipGradNorm(1.0);
  EXPECT_NEAR(x.grad().Norm(), 0.02, 1e-9);
}

TEST(OptimizerTest, ScaleGrads) {
  ag::Var x = ag::Param(Tensor::Zeros(Shape{1, 2}));
  Adam opt({x}, 0.1);
  x.grad() = Tensor::Full(Shape{1, 2}, 8.0);
  opt.ScaleGrads(0.25);
  EXPECT_DOUBLE_EQ(x.grad()[0], 2.0);
}

}  // namespace
}  // namespace diffode::nn
