#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "autograd/arena.h"
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
// GruCell's recurrence node against the op chain it replaced.
// ---------------------------------------------------------------------------

// The op chain GruCell::Forward built per step before the recurrence became
// one tape node, kept here as the reference: two MatMul + AddRowVec pairs,
// six SliceCols, three Add, two Sigmoid, a Tanh, two Mul and a Sub.
ag::Var ChainStep(const GruCell& cell, const ag::Var& x, const ag::Var& h) {
  const Index H = cell.hidden_size();
  ag::Var xg = cell.x_gates().Forward(x);
  ag::Var hg = cell.h_gates().Forward(h);
  ag::Var r = ag::Sigmoid(
      ag::Add(ag::SliceCols(xg, 0, H), ag::SliceCols(hg, 0, H)));
  ag::Var u = ag::Sigmoid(
      ag::Add(ag::SliceCols(xg, H, H), ag::SliceCols(hg, H, H)));
  ag::Var c = ag::Tanh(ag::Add(ag::SliceCols(xg, 2 * H, H),
                               ag::Mul(r, ag::SliceCols(hg, 2 * H, H))));
  return ag::Add(c, ag::Mul(u, ag::Sub(h, c)));
}

// The chain over T = x.rows() / B steps, rows laid out as GruCell::Scan's.
ag::Var ChainScan(const GruCell& cell, const ag::Var& x, const ag::Var& h0) {
  const Index b = h0.rows();
  ag::Var h = h0;
  std::vector<ag::Var> states;
  for (Index t = 0; t < x.rows() / b; ++t) {
    h = ChainStep(cell, ag::SliceRows(x, t * b, b), h);
    states.push_back(h);
  }
  return ag::ConcatRows(states);
}

// One recurrence case: T steps of B sequences, h0 constant or trainable.
struct GruCase {
  Index steps, rows;
  bool h0_param;
};

class GruScanTest : public ::testing::TestWithParam<GruCase> {
 protected:
  static constexpr Index kIn = 5;
  static constexpr Index kHidden = 11;  // a vector body plus a tail

  GruScanTest() : rng_(40), cell_(kIn, kHidden, rng_) {
    const GruCase& p = GetParam();
    const Index m = p.steps * p.rows;
    x_ = ag::Param(rng_.NormalTensor(Shape{m, kIn}));
    const Tensor h0 = rng_.NormalTensor(Shape{p.rows, kHidden}, 0.0, 0.5);
    h0_ = p.h0_param ? ag::Param(h0) : ag::Constant(h0);
    seed_ = rng_.NormalTensor(Shape{m, kHidden});
    // Non-zero biases, so their gradients and the bias adds are exercised.
    for (auto& p : cell_.Params())
      if (p.rows() == 1) p.mutable_value() = rng_.NormalTensor(p.shape());
  }

  // Every trainable input the node reads: x, h0 if trainable, the weights.
  std::vector<ag::Var> Leaves() const {
    std::vector<ag::Var> out{x_};
    if (GetParam().h0_param) out.push_back(h0_);
    for (const auto& p : cell_.Params()) out.push_back(p);
    return out;
  }

  // Forward through `scan`, backward from <states, seed>, and the gradient
  // of every leaf (read before the next call zeroes them).
  template <typename Scan>
  std::pair<Tensor, std::vector<Tensor>> Run(Scan scan) {
    for (auto& l : Leaves()) l.ZeroGrad();
    ag::Var states = scan();
    ag::Sum(ag::Mul(states, ag::Constant(seed_))).Backward();
    std::vector<Tensor> grads;
    for (auto& l : Leaves()) grads.push_back(l.grad());
    return {states.value(), grads};
  }

  Rng rng_;
  GruCell cell_;
  ag::Var x_, h0_;
  Tensor seed_;
};

void ExpectBitwise(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (Index i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]) << "at " << i;
}

TEST_P(GruScanTest, ValueIsBitwiseTheChain) {
  ExpectBitwise(cell_.Scan(x_, h0_).value(),
                ChainScan(cell_, x_, h0_).value());
}

TEST_P(GruScanTest, GradientsMatchTheChain) {
  const auto node = Run([&] { return cell_.Scan(x_, h0_); });
  const auto chain = Run([&] { return ChainScan(cell_, x_, h0_); });
  ExpectBitwise(node.first, chain.first);
  ASSERT_EQ(node.second.size(), chain.second.size());
  for (std::size_t k = 0; k < node.second.size(); ++k) {
    const Tensor& g = node.second[k];
    const Tensor& ref = chain.second[k];
    ASSERT_EQ(g.shape(), ref.shape());
    EXPECT_GT(ref.MaxAbs(), 0.0) << "leaf " << k;
    for (Index i = 0; i < g.numel(); ++i)
      EXPECT_LE(std::fabs(g[i] - ref[i]),
                1e-12 * std::max(1.0, std::fabs(ref[i])))
          << "leaf " << k << " at " << i;
  }
}

TEST_P(GruScanTest, GradCheck) {
  for (auto& leaf : Leaves()) {
    EXPECT_LT(testing::MaxGradError(leaf,
                                    [&] {
                                      return ag::Sum(
                                          ag::Mul(cell_.Scan(x_, h0_),
                                                  ag::Constant(seed_)));
                                    }),
              1e-6);
  }
}

TEST_P(GruScanTest, ArenaRecordIsBitwiseTheHeapRecord) {
  ASSERT_EQ(ag::TapeArena::Active(), nullptr);
  const auto heap = Run([&] { return cell_.Scan(x_, h0_); });
  std::pair<Tensor, std::vector<Tensor>> arena;
  {
    ag::TapeArena::Scope scope;
    ASSERT_NE(ag::TapeArena::Active(), nullptr);
    arena = Run([&] { return cell_.Scan(x_, h0_); });
  }
  ag::TapeArena::ThreadLocal().Reset();
  ExpectBitwise(arena.first, heap.first);
  ASSERT_EQ(arena.second.size(), heap.second.size());
  for (std::size_t k = 0; k < heap.second.size(); ++k)
    ExpectBitwise(arena.second[k], heap.second[k]);
}

TEST_P(GruScanTest, NoGradIsValueOnlyAndBitwise) {
  const Tensor with_grad = cell_.Scan(x_, h0_).value();
  ag::NoGradScope no_grad;
  const ag::Var out = cell_.Scan(x_, h0_);
  EXPECT_EQ(out.node(), nullptr);
  ExpectBitwise(out.value(), with_grad);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GruScanTest,
    ::testing::Values(GruCase{1, 3, false}, GruCase{1, 3, true},
                      GruCase{48, 1, false}, GruCase{48, 1, true}),
    [](const ::testing::TestParamInfo<GruCase>& info) {
      return "T" + std::to_string(info.param.steps) + "B" +
             std::to_string(info.param.rows) +
             (info.param.h0_param ? "TrainableH0" : "ConstantH0");
    });

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
