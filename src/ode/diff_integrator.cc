#include "ode/diff_integrator.h"

#include "autograd/ops.h"

namespace diffode::ode {
namespace {

// Each stage update is a fused y + h·k node (ag::AxpyFused) instead of a
// MulScalar + Add pair, and RK4's combination collapses five nodes into one
// ag::Rk4Combine. The unroll builds these once per solver step, so tape size
// per step drops by ~2x for RK4.

ag::Var EulerStep(const DiffOdeFunc& f, Scalar t, const ag::Var& y, Scalar h) {
  return ag::AxpyFused(y, f(t, y), h);
}

ag::Var MidpointStep(const DiffOdeFunc& f, Scalar t, const ag::Var& y,
                     Scalar h) {
  ag::Var k1 = f(t, y);
  ag::Var k2 = f(t + 0.5 * h, ag::AxpyFused(y, k1, 0.5 * h));
  return ag::AxpyFused(y, k2, h);
}

ag::Var Rk4Step(const DiffOdeFunc& f, Scalar t, const ag::Var& y, Scalar h) {
  ag::Var k1 = f(t, y);
  ag::Var k2 = f(t + 0.5 * h, ag::AxpyFused(y, k1, 0.5 * h));
  ag::Var k3 = f(t + 0.5 * h, ag::AxpyFused(y, k2, 0.5 * h));
  ag::Var k4 = f(t + h, ag::AxpyFused(y, k3, h));
  return ag::Rk4Combine(y, k1, k2, k3, k4, h);
}

}  // namespace

ag::Var Step(const DiffOdeFunc& f, DiffMethod method, Scalar t,
             const ag::Var& y, Scalar h) {
  switch (method) {
    case DiffMethod::kEuler:
      return EulerStep(f, t, y, h);
    case DiffMethod::kMidpoint:
      return MidpointStep(f, t, y, h);
    case DiffMethod::kRk4:
      break;
  }
  return Rk4Step(f, t, y, h);
}

void AppendSegment(RowPlan* plan, Scalar t0, Scalar t1, Scalar step) {
  ForEachStep(t0, t1, step, [plan](Scalar t, Scalar h) {
    plan->steps.push_back(RowStep{t, h});
  });
}

void AppendCheckpoint(RowPlan* plan, Index tag) {
  plan->checkpoints.push_back(
      RowCheckpoint{static_cast<Index>(plan->steps.size()), tag});
}

ag::Var IntegrateVar(const DiffOdeFunc& f, ag::Var y0, Scalar t0, Scalar t1,
                     const DiffSolveOptions& options) {
  ag::Var y = std::move(y0);
  ForEachStep(t0, t1, options.step, [&](Scalar t, Scalar h) {
    y = Step(f, options.method, t, y, h);
  });
  return y;
}

}  // namespace diffode::ode
