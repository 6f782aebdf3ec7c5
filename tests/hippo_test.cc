#include "hippo/hippo.h"

#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.h"
#include "ode/diff_integrator.h"

namespace diffode::hippo {
namespace {

TEST(HippoTest, LegsMatrixStructure) {
  Tensor a = MakeLegsA(5);
  // Diagonal -(i+1), strictly-upper zero, lower -sqrt(2i+1)sqrt(2k+1).
  for (Index i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(a.at(i, i), -static_cast<Scalar>(i + 1));
    for (Index k = i + 1; k < 5; ++k) EXPECT_DOUBLE_EQ(a.at(i, k), 0.0);
    for (Index k = 0; k < i; ++k)
      EXPECT_NEAR(a.at(i, k),
                  -std::sqrt(Scalar(2 * i + 1)) * std::sqrt(Scalar(2 * k + 1)),
                  1e-12);
  }
  Tensor b = MakeLegsB(4);
  for (Index i = 0; i < 4; ++i)
    EXPECT_NEAR(b.at(i, 0), std::sqrt(Scalar(2 * i + 1)), 1e-12);
}

TEST(HippoTest, LegsIsStable) {
  // All eigenvalues of the LegS A have negative real part; the diagonal of a
  // triangular-structure similarity gives them directly for this form.
  // Empirically: integrating dc/dt = A c decays.
  ag::NoGradScope no_grad;
  ag::Var a = ag::Constant(MakeLegsA(8));
  ode::DiffSolveOptions options;
  options.method = ode::DiffMethod::kRk4;
  options.step = 0.01;
  Tensor c0 = Tensor::Ones(Shape{8, 1});
  ode::DiffOdeFunc f = [&a](Scalar, const ag::Var& c) {
    return ag::MatMul(a, c);
  };
  Tensor c1 =
      ode::IntegrateVar(f, ag::Constant(c0), 0.0, 5.0, options).value();
  EXPECT_LT(c1.Norm(), c0.Norm() * 0.1);
}

TEST(HippoTest, ProjectorReconstructsConstantSignal) {
  // LegS of a constant stream: coefficient 0 carries the running average
  // (~u), higher Legendre coefficients stay near zero.
  LegsProjector projector(6);
  for (int k = 0; k < 400; ++k) projector.Update(1.0);
  const Tensor& c = projector.coeffs();
  EXPECT_NEAR(c.at(0, 0), 1.0, 0.05);
  for (Index i = 1; i < 6; ++i) EXPECT_LT(std::fabs(c.at(i, 0)), 0.1);
}

TEST(HippoTest, ProjectorTracksRamp) {
  // For u(t) = t/T the Legendre-coefficient memory should weight the first
  // two coefficients: mean 0.5 and positive slope coefficient.
  LegsProjector projector(6);
  const int kSteps = 500;
  for (int k = 1; k <= kSteps; ++k)
    projector.Update(static_cast<Scalar>(k) / kSteps);
  const Tensor& c = projector.coeffs();
  EXPECT_NEAR(c.at(0, 0), 0.5, 0.1);
  EXPECT_GT(c.at(1, 0), 0.05);
}

TEST(HippoTest, ProjectorResetClearsState) {
  LegsProjector projector(4);
  projector.Update(3.0);
  projector.Reset();
  EXPECT_EQ(projector.coeffs().MaxAbs(), 0.0);
}

}  // namespace
}  // namespace diffode::hippo
