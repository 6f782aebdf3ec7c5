#ifndef DIFFODE_ODE_DIFF_INTEGRATOR_H_
#define DIFFODE_ODE_DIFF_INTEGRATOR_H_

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

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
// IntegrateVar and AppendSegment both walk this grid, so a plan replays the
// interval unroll's (t, h) sequence bit for bit.
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

// One integration step of a row: advance from local time t by h.
struct RowStep {
  Scalar t;
  Scalar h;
};

// A point in a row's timeline where the caller intervenes: an observation
// jump (mutates the row) or a readout (records it). Fires after the row has
// completed `after_steps` steps, before it takes the next one.
struct RowCheckpoint {
  Index after_steps;
  Index tag;  // caller-defined (e.g. observation or query index)
};

// Precomputed per-row integration timeline, walked step for step through
// Step on the tape (DiffOde::StatesAt) and by ode::LockstepIntegrate
// (batched, ode/lockstep.h).
struct RowPlan {
  std::vector<RowStep> steps;
  std::vector<RowCheckpoint> checkpoints;  // non-decreasing after_steps
};

// Appends the steps IntegrateVar(f, y, t0, t1, {method, step}) takes: both
// walk ForEachStep's grid, so the (t, h) sequences are the same values.
// Supports both directions (t1 < t0 steps backward).
void AppendSegment(RowPlan* plan, Scalar t0, Scalar t1, Scalar step);

// Appends a checkpoint at the row's current end of timeline.
void AppendCheckpoint(RowPlan* plan, Index tag);

// One `method` step of the tape from (t, y) by h: the step body both
// IntegrateVar and a plan walk (DiffOde::StatesAt) take, so a walk of the
// steps AppendSegment(t0, t1) appended records the nodes IntegrateVar(f, y0,
// t0, t1) records, in the same order.
ag::Var Step(const DiffOdeFunc& f, DiffMethod method, Scalar t,
             const ag::Var& y, Scalar h);

// Integrates from (t0, y0) to t1, building the tape as it goes; the result
// is differentiable w.r.t. y0 and any parameters used inside f.
ag::Var IntegrateVar(const DiffOdeFunc& f, ag::Var y0, Scalar t0, Scalar t1,
                     const DiffSolveOptions& options = {});

}  // namespace diffode::ode

#endif  // DIFFODE_ODE_DIFF_INTEGRATOR_H_
