#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.h"
#include "gradcheck.h"
#include "ode/diff_integrator.h"
#include "ode/solver.h"

namespace diffode::ode {
namespace {

// dy/dt = -y, y(0) = 1 -> y(t) = exp(-t).
OdeFunc ExpDecay() {
  return [](Scalar, const Tensor& y) { return -y; };
}

// dy/dt = cos(t), y(0) = 0 -> y(t) = sin(t).
OdeFunc Cosine() {
  return [](Scalar t, const Tensor& y) {
    return Tensor::Full(y.shape(), std::cos(t));
  };
}

// 2-D rotation: dy/dt = [[0,-1],[1,0]] y; preserves the norm.
OdeFunc Rotation() {
  return [](Scalar, const Tensor& y) {
    Tensor d(y.shape());
    d[0] = -y[1];
    d[1] = y[0];
    return d;
  };
}

Scalar SolveExpDecay(Method method, Scalar step) {
  SolveOptions options;
  options.method = method;
  options.step = step;
  Tensor y0 = Tensor::Ones(Shape{1, 1});
  return Integrate(ExpDecay(), y0, 0.0, 1.0, options).item();
}

TEST(OdeTest, EulerFirstOrderConvergence) {
  const Scalar exact = std::exp(-1.0);
  const Scalar e1 = std::fabs(SolveExpDecay(Method::kEuler, 0.1) - exact);
  const Scalar e2 = std::fabs(SolveExpDecay(Method::kEuler, 0.05) - exact);
  // Halving the step should roughly halve the error.
  EXPECT_NEAR(e1 / e2, 2.0, 0.3);
}

TEST(OdeTest, MidpointSecondOrderConvergence) {
  const Scalar exact = std::exp(-1.0);
  const Scalar e1 = std::fabs(SolveExpDecay(Method::kMidpoint, 0.1) - exact);
  const Scalar e2 = std::fabs(SolveExpDecay(Method::kMidpoint, 0.05) - exact);
  EXPECT_NEAR(e1 / e2, 4.0, 0.8);
}

TEST(OdeTest, Rk4FourthOrderConvergence) {
  const Scalar exact = std::exp(-1.0);
  const Scalar e1 = std::fabs(SolveExpDecay(Method::kRk4, 0.2) - exact);
  const Scalar e2 = std::fabs(SolveExpDecay(Method::kRk4, 0.1) - exact);
  EXPECT_NEAR(e1 / e2, 16.0, 6.0);
}

TEST(OdeTest, Rk4HighAccuracy) {
  EXPECT_NEAR(SolveExpDecay(Method::kRk4, 0.05), std::exp(-1.0), 1e-7);
}

TEST(OdeTest, Dopri5MeetsTolerance) {
  SolveOptions options;
  options.method = Method::kDopri5;
  options.rtol = 1e-8;
  options.atol = 1e-10;
  SolveStats stats;
  Tensor y = Integrate(ExpDecay(), Tensor::Ones(Shape{1, 1}), 0.0, 2.0,
                       options, &stats);
  EXPECT_NEAR(y.item(), std::exp(-2.0), 1e-7);
  EXPECT_GT(stats.steps, 0);
}

TEST(OdeTest, Dopri5AdaptsStepCount) {
  SolveOptions loose;
  loose.method = Method::kDopri5;
  loose.rtol = 1e-3;
  loose.atol = 1e-5;
  SolveOptions tight = loose;
  tight.rtol = 1e-10;
  tight.atol = 1e-12;
  SolveStats s_loose, s_tight;
  Integrate(Rotation(), Tensor::FromVector({1.0, 0.0}), 0.0, 6.0, loose,
            &s_loose);
  Integrate(Rotation(), Tensor::FromVector({1.0, 0.0}), 0.0, 6.0, tight,
            &s_tight);
  EXPECT_GT(s_tight.rhs_evals, s_loose.rhs_evals);
}

TEST(OdeTest, ImplicitAdamsAccuracy) {
  SolveOptions options;
  options.method = Method::kImplicitAdams;
  options.step = 0.02;
  Tensor y = Integrate(ExpDecay(), Tensor::Ones(Shape{1, 1}), 0.0, 1.0,
                       options);
  EXPECT_NEAR(y.item(), std::exp(-1.0), 1e-6);
}

TEST(OdeTest, ImplicitAdamsNonAutonomous) {
  SolveOptions options;
  options.method = Method::kImplicitAdams;
  options.step = 0.01;
  Tensor y = Integrate(Cosine(), Tensor(Shape{1, 1}), 0.0, 2.0, options);
  EXPECT_NEAR(y.item(), std::sin(2.0), 1e-6);
}

TEST(OdeTest, BackwardIntegration) {
  SolveOptions options;
  options.method = Method::kRk4;
  options.step = 0.05;
  // Integrate forward then back: should recover the start.
  Tensor y1 = Integrate(ExpDecay(), Tensor::Ones(Shape{1, 1}), 0.0, 1.0,
                        options);
  Tensor y0 = Integrate(ExpDecay(), y1, 1.0, 0.0, options);
  EXPECT_NEAR(y0.item(), 1.0, 1e-7);
}

TEST(OdeTest, RotationPreservesNormDopri5) {
  SolveOptions options;
  options.method = Method::kDopri5;
  options.rtol = 1e-9;
  options.atol = 1e-11;
  Tensor y = Integrate(Rotation(), Tensor::FromVector({0.6, 0.8}), 0.0, 10.0,
                       options);
  EXPECT_NEAR(y.Norm(), 1.0, 1e-6);
  // y(t) = rotation by t of y(0).
  const Scalar c = std::cos(10.0), s = std::sin(10.0);
  EXPECT_NEAR(y[0], 0.6 * c - 0.8 * s, 1e-6);
  EXPECT_NEAR(y[1], 0.6 * s + 0.8 * c, 1e-6);
}

TEST(OdeTest, IntegrateDenseMatchesPointwise) {
  SolveOptions options;
  options.method = Method::kRk4;
  options.step = 0.05;
  std::vector<Scalar> times = {0.0, 0.3, 0.7, 1.5};
  auto dense = IntegrateDense(ExpDecay(), Tensor::Ones(Shape{1, 1}), times,
                              options);
  ASSERT_EQ(dense.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i)
    EXPECT_NEAR(dense[i].item(), std::exp(-times[i]), 1e-6);
}

TEST(OdeTest, ZeroLengthIntervalIsIdentity) {
  Tensor y0 = Tensor::FromVector({2.0, 3.0});
  Tensor y = Integrate(ExpDecay(), y0, 1.0, 1.0);
  EXPECT_EQ((y - y0).MaxAbs(), 0.0);
}

// ---------------------------------------------------------------------------
// Differentiable integrator.
// ---------------------------------------------------------------------------

TEST(DiffIntegratorTest, MatchesPlainSolver) {
  DiffSolveOptions options;
  options.method = DiffMethod::kRk4;
  options.step = 0.05;
  ode::DiffOdeFunc f = [](Scalar, const ag::Var& y) { return ag::Neg(y); };
  ag::Var y0 = ag::Constant(Tensor::Ones(Shape{1, 1}));
  ag::Var y1 = IntegrateVar(f, y0, 0.0, 1.0, options);
  EXPECT_NEAR(y1.value().item(), std::exp(-1.0), 1e-6);
}

TEST(DiffIntegratorTest, GradientThroughLinearDecay) {
  // y' = -k y; y(1) = y0 exp(-k). d y(1)/d y0 = exp(-k), checked by tape.
  ag::Var k = ag::Param(Tensor::Full(Shape{1, 1}, 0.8));
  ag::Var y0 = ag::Param(Tensor::Full(Shape{1, 1}, 2.0));
  auto scalar_fn = [&] {
    ode::DiffOdeFunc f = [&](Scalar, const ag::Var& y) {
      return ag::Neg(ag::Mul(k, y));
    };
    DiffSolveOptions options;
    options.method = DiffMethod::kRk4;
    options.step = 0.1;
    return ag::Sum(IntegrateVar(f, y0, 0.0, 1.0, options));
  };
  EXPECT_LT(diffode::testing::MaxGradError(y0, scalar_fn), 1e-6);
  EXPECT_LT(diffode::testing::MaxGradError(k, scalar_fn), 1e-6);
}

TEST(DiffIntegratorTest, DenseGradientThroughMultiplePoints) {
  ag::Var k = ag::Param(Tensor::Full(Shape{1, 1}, 0.5));
  auto scalar_fn = [&] {
    ode::DiffOdeFunc f = [&](Scalar, const ag::Var& y) {
      return ag::Neg(ag::Mul(k, y));
    };
    DiffSolveOptions options;
    options.method = DiffMethod::kMidpoint;
    options.step = 0.1;
    // Chained segments, as DiffOde::StatesAt reads several points.
    const std::vector<Scalar> times = {0.0, 0.5, 1.0, 2.0};
    ag::Var y = ag::Constant(Tensor::Ones(Shape{1, 1}));
    ag::Var acc;
    for (std::size_t i = 1; i < times.size(); ++i) {
      y = IntegrateVar(f, y, times[i - 1], times[i], options);
      acc = i == 1 ? y : ag::Add(acc, y);
    }
    return ag::Sum(acc);
  };
  EXPECT_LT(diffode::testing::MaxGradError(k, scalar_fn), 1e-6);
}

TEST(DiffIntegratorTest, BackwardTimeIntegration) {
  ode::DiffOdeFunc f = [](Scalar, const ag::Var& y) { return ag::Neg(y); };
  DiffSolveOptions options;
  options.method = DiffMethod::kRk4;
  options.step = 0.05;
  ag::Var y0 = ag::Constant(Tensor::Ones(Shape{1, 1}));
  ag::Var back = IntegrateVar(f, y0, 0.0, -1.0, options);
  EXPECT_NEAR(back.value().item(), std::exp(1.0), 1e-5);
}

}  // namespace
}  // namespace diffode::ode
