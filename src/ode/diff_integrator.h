#ifndef DIFFODE_ODE_DIFF_INTEGRATOR_H_
#define DIFFODE_ODE_DIFF_INTEGRATOR_H_

#include <functional>

#include "autograd/variable.h"
#include "ode/solver.h"

namespace diffode::ode {

// Right-hand side of dy/dt = f(t, y) on autograd Vars (training path).
using DiffOdeFunc = std::function<ag::Var(Scalar t, const ag::Var& y)>;

// Which fixed-step scheme to unroll through the tape. Adaptive and implicit
// schemes are inference-only; training uses discretize-then-optimize with an
// explicit scheme (see DESIGN.md, substitutions).
enum class DiffMethod { kEuler, kMidpoint, kRk4 };

struct DiffSolveOptions {
  DiffMethod method = DiffMethod::kRk4;
  Scalar step = 0.05;
};

// Integrates from (t0, y0) to t1, building the tape as it goes; the result
// is differentiable w.r.t. y0 and any parameters used inside f.
ag::Var IntegrateVar(const DiffOdeFunc& f, ag::Var y0, Scalar t0, Scalar t1,
                     const DiffSolveOptions& options = {});

}  // namespace diffode::ode

#endif  // DIFFODE_ODE_DIFF_INTEGRATOR_H_
