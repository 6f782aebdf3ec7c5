#ifndef DIFFODE_ODE_DIFF_INTEGRATOR_H_
#define DIFFODE_ODE_DIFF_INTEGRATOR_H_

#include <algorithm>
#include <cmath>
#include <functional>

#include "autograd/variable.h"

namespace diffode::ode {

// Right-hand side of dy/dt = f(t, y) on autograd Vars (training path).
using DiffOdeFunc = std::function<ag::Var(Scalar t, const ag::Var& y)>;

// Which fixed-step scheme to unroll through the tape (and to run in the
// lockstep engine). Training uses discretize-then-optimize with an explicit
// scheme (see DESIGN.md, substitutions).
enum class DiffMethod { kEuler, kMidpoint, kRk4 };

struct DiffSolveOptions {
  DiffMethod method = DiffMethod::kRk4;
  Scalar step = 0.05;
};

// The fixed step grid from t0 to t1: calls fn(t, h) for each step, in
// order. The last step is clamped to land on t1; t1 < t0 steps backward.
// IntegrateVar and ode::AppendSegment both walk this grid, so a lockstep
// plan replays the per-sequence unroll's (t, h) sequence bit for bit.
// Inline and allocation-free: IntegrateVar is on the training hot path.
template <typename Fn>
inline void ForEachStep(Scalar t0, Scalar t1, Scalar step, Fn&& fn) {
  if (t0 == t1) return;
  const Scalar direction = t1 >= t0 ? 1.0 : -1.0;
  const Scalar h_mag = std::fabs(step);
  DIFFODE_CHECK_GT(h_mag, 0.0);
  Scalar t = t0;
  while (direction * (t1 - t) > 1e-14) {
    const Scalar h = direction * std::min(h_mag, std::fabs(t1 - t));
    fn(t, h);
    t += h;
  }
}

// Integrates from (t0, y0) to t1, building the tape as it goes; the result
// is differentiable w.r.t. y0 and any parameters used inside f.
ag::Var IntegrateVar(const DiffOdeFunc& f, ag::Var y0, Scalar t0, Scalar t1,
                     const DiffSolveOptions& options = {});

}  // namespace diffode::ode

#endif  // DIFFODE_ODE_DIFF_INTEGRATOR_H_
