// Parameterized property sweeps: invariants that must hold across whole
// parameter grids, not just single examples.

#include <gtest/gtest.h>

#include <cmath>

#include "core/config.h"
#include "core/dhs.h"
#include "linalg/pinv.h"
#include "ode/solver.h"
#include "sparsity/hoyer.h"
#include "sparsity/pt_solver.h"
#include "tensor/random.h"

namespace diffode {
namespace {

// ---------------------------------------------------------------------------
// ODE solver convergence orders.
// ---------------------------------------------------------------------------

struct OrderCase {
  ode::Method method;
  double expected_order;
  const char* name;
};

class SolverOrderTest : public ::testing::TestWithParam<OrderCase> {};

TEST_P(SolverOrderTest, EmpiricalOrderMatches) {
  const OrderCase& param = GetParam();
  // Non-autonomous scalar problem with known solution:
  // y' = y * cos(t), y(0)=1 -> y(t) = exp(sin(t)).
  ode::OdeFunc f = [](Scalar t, const Tensor& y) { return y * std::cos(t); };
  auto solve = [&](Scalar h) {
    ode::SolveOptions options;
    options.method = param.method;
    options.step = h;
    options.corrector_iters = 3;
    return ode::Integrate(f, Tensor::Ones(Shape{1, 1}), 0.0, 2.0, options)
        .item();
  };
  const Scalar exact = std::exp(std::sin(2.0));
  const double e1 = std::fabs(solve(0.05) - exact);
  const double e2 = std::fabs(solve(0.025) - exact);
  ASSERT_GT(e1, 0.0);
  ASSERT_GT(e2, 0.0);
  const double order = std::log2(e1 / e2);
  EXPECT_NEAR(order, param.expected_order, 0.6) << param.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, SolverOrderTest,
    ::testing::Values(OrderCase{ode::Method::kEuler, 1.0, "euler"},
                      OrderCase{ode::Method::kMidpoint, 2.0, "midpoint"},
                      OrderCase{ode::Method::kRk4, 4.0, "rk4"},
                      OrderCase{ode::Method::kImplicitAdams, 4.0, "adams"}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Attention inversion invariants over an (n, d) grid.
// ---------------------------------------------------------------------------

class AttentionGridTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AttentionGridTest, RecoveryReconstructsSAndSumsToOne) {
  const Index n = std::get<0>(GetParam());
  const Index d = std::get<1>(GetParam());
  Rng rng(static_cast<std::uint64_t>(n * 100 + d));
  Tensor z = rng.NormalTensor(Shape{n, d});
  ag::NoGradScope no_grad;
  core::DhsContext ctx =
      core::BuildDhsContext(ag::Constant(z), core::DiffOdeConfig{}.ridge);
  // Random softmax attention and its DHS.
  Tensor logits = rng.NormalTensor(Shape{1, n});
  const Scalar m = logits.Max();
  Tensor p_true = logits.Map([m](Scalar x) { return std::exp(x - m); });
  p_true *= 1.0 / p_true.Sum();
  Tensor s = p_true.MatMul(z);
  Tensor p = Tensor::Uninit(Shape{1, n});
  core::RecoverP(core::ViewOf(ctx), s.data(), sparsity::PtStrategy::kMaxHoyer,
                 p.data());
  EXPECT_LT((p.MatMul(z) - s).MaxAbs(), 1e-6) << n << "x" << d;
  EXPECT_NEAR(p.Sum(), 1.0, 1e-6) << n << "x" << d;
}

TEST_P(AttentionGridTest, DhsDerivativeMatchesFiniteDifference) {
  const Index n = std::get<0>(GetParam());
  const Index d = std::get<1>(GetParam());
  Rng rng(static_cast<std::uint64_t>(n * 7 + d));
  Tensor z_mat = rng.NormalTensor(Shape{n, d});
  Tensor z0 = rng.NormalTensor(Shape{1, d});
  Tensor vel = rng.NormalTensor(Shape{1, d});
  ag::Var z = ag::Constant(z_mat);
  core::DhsContext ctx = core::BuildDhsContext(z, 0.0);
  auto s_of_t = [&](Scalar t) {
    return core::DhsForward(ctx, ag::Constant(z0 + vel * t)).value();
  };
  Tensor logits =
      z0.MatMul(z_mat.Transposed()) * (1.0 / std::sqrt(Scalar(d)));
  const Scalar m = logits.Max();
  Tensor p = logits.Map([m](Scalar x) { return std::exp(x - m); });
  p *= 1.0 / p.Sum();
  Tensor ds = Tensor::Uninit(Shape{1, d});
  Tensor scratch = Tensor::Uninit(Shape{1, 3 * n + 2 * d});
  core::Derivative(core::ViewOf(ctx), vel.data(), p.data(), scratch.data(),
                   ds.data());
  const Scalar eps = 1e-6;
  Tensor fd = (s_of_t(eps) - s_of_t(-eps)) * (1.0 / (2.0 * eps));
  EXPECT_LT((ds - fd).MaxAbs(), 1e-5) << n << "x" << d;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AttentionGridTest,
    ::testing::Combine(::testing::Values(6, 10, 20, 40),
                       ::testing::Values(2, 4, 8)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_d" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Moore-Penrose conditions over a shape sweep.
// ---------------------------------------------------------------------------

class PinvShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PinvShapeTest, FourConditions) {
  const Index r = std::get<0>(GetParam());
  const Index c = std::get<1>(GetParam());
  Rng rng(static_cast<std::uint64_t>(r * 31 + c));
  Tensor a = rng.NormalTensor(Shape{r, c});
  Tensor g = linalg::PInverse(a);
  const Scalar tol = 1e-8;
  EXPECT_LT((a.MatMul(g).MatMul(a) - a).MaxAbs(), tol);
  EXPECT_LT((g.MatMul(a).MatMul(g) - g).MaxAbs(), tol);
  Tensor ag_prod = a.MatMul(g);
  EXPECT_LT((ag_prod - ag_prod.Transposed()).MaxAbs(), tol);
  Tensor ga_prod = g.MatMul(a);
  EXPECT_LT((ga_prod - ga_prod.Transposed()).MaxAbs(), tol);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PinvShapeTest,
    ::testing::Combine(::testing::Values(3, 8, 15),
                       ::testing::Values(3, 8, 15)),
    [](const auto& info) {
      return std::to_string(std::get<0>(info.param)) + "x" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Hoyer metric invariants over random non-negative vectors.
// ---------------------------------------------------------------------------

class HoyerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HoyerPropertyTest, BoundedAndScaleInvariant) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Tensor x = rng.UniformTensor(Shape{static_cast<Index>(GetParam())}, 0.0, 1.0);
  const Scalar h = sparsity::Hoyer(x);
  EXPECT_GE(h, -1e-12);
  EXPECT_LE(h, 1.0 + 1e-12);
  EXPECT_NEAR(sparsity::Hoyer(x * 13.0), h, 1e-10);
}

TEST_P(HoyerPropertyTest, RobinHoodTransferNeverIncreases) {
  // Property (a): moving mass from a larger entry to a smaller one (keeping
  // the sum) cannot increase the metric.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 999);
  const Index n = static_cast<Index>(GetParam());
  Tensor x = rng.UniformTensor(Shape{n}, 0.1, 1.0);
  // Find max and min entries.
  Index hi = 0, lo = 0;
  for (Index i = 0; i < n; ++i) {
    if (x[i] > x[hi]) hi = i;
    if (x[i] < x[lo]) lo = i;
  }
  if (hi == lo) GTEST_SKIP();
  const Scalar before = sparsity::Hoyer(x);
  const Scalar alpha = 0.25 * (x[hi] - x[lo]);
  Tensor y = x;
  y[hi] -= alpha;
  y[lo] += alpha;
  EXPECT_LE(sparsity::Hoyer(y), before + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HoyerPropertyTest,
                         ::testing::Values(4, 8, 16, 64, 256));

// ---------------------------------------------------------------------------
// Exact KKT vs relaxed closed form on small instances.
// ---------------------------------------------------------------------------

class KktSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(KktSweepTest, ExactSolutionFeasibleAndReconstructs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const Index n = 8, d = 3;
  Tensor z = rng.NormalTensor(Shape{n, d});
  ag::NoGradScope no_grad;
  core::DhsContext ctx =
      core::BuildDhsContext(ag::Constant(z), core::DiffOdeConfig{}.ridge);
  Tensor logits = rng.NormalTensor(Shape{1, n});
  const Scalar m = logits.Max();
  Tensor p_true = logits.Map([m](Scalar x) { return std::exp(x - m); });
  p_true *= 1.0 / p_true.Sum();
  Tensor s = p_true.MatMul(z);
  Tensor p = sparsity::MaxHoyerExactKkt(z, ctx.zt_pinv.value(), s);
  if (p.numel() == 0) GTEST_SKIP() << "no KKT point for this instance";
  EXPECT_NEAR(p.Sum(), 1.0, 1e-6);
  for (Index i = 0; i < n; ++i) EXPECT_GE(p[i], -1e-6);
  EXPECT_LT((p.MatMul(z) - s).MaxAbs(), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KktSweepTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace diffode
