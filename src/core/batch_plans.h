#ifndef DIFFODE_CORE_BATCH_PLANS_H_
#define DIFFODE_CORE_BATCH_PLANS_H_

#include <vector>

#include "ode/diff_integrator.h"

namespace diffode::core {

// The DIFFODE step timeline: the one place that decides which (t, h) steps
// a sequence's DHS ODE takes from its first observation to each query.
// Both forwards walk it: the tape forward (DiffOde::StatesAt, at B = 1,
// through ode::Step) and the lockstep serving
// engine (diffode_lockstep.cc, through ode::LockstepIntegrate). Timeline
// construction is always f64 and dtype-free, so every forward and both
// serving precisions integrate the EXACT same step grids.
//
// Each batch row's grid is its sorted-unique query times plus any anchors
// passed for it (which change how each span is stepped: the last step of a
// span is clamped). Anchors are grid points, not checkpoints. The model's
// forwards pass none: the consistency term reads the observation states by
// linear interpolation between step ends (DiffOde::StatesAt), so the grid
// is the queries'. The forward plan integrates the grid points t >= 0 from
// t = 0; queries before the first observation get an extra engine row
// integrating the points t < 0 backward from the same initial state.
// Checkpoints are tagged with the query's index in the row's sorted-unique
// `slots`.
struct BatchPlans {
  // Engine rows: rows [0, b) are the forward chains (engine row r is batch
  // row r); any backward chains follow.
  std::vector<ode::RowPlan> plans;
  // Engine row -> originating batch row (identity for the first b rows).
  std::vector<Index> orig_of_row;
  // Per batch row, the sorted-unique query times; checkpoint tags index
  // into this.
  std::vector<std::vector<Scalar>> slots;
  // Per batch row, each query's index into `slots`, in query order.
  std::vector<std::vector<Index>> query_slots;
  // Per batch row, its backward engine row, or -1 when every query is at
  // t >= 0.
  std::vector<Index> back_row;
};

// `anchors[r]` lists extra times to fold into row r's step grid,
// non-decreasing from t >= 0, or is nullptr (every model forward). `step`
// is the solver step size.
BatchPlans BuildBatchPlans(
    const std::vector<std::vector<Scalar>>& norm_queries,
    const std::vector<const std::vector<Scalar>*>& anchors, Scalar step);

}  // namespace diffode::core

#endif  // DIFFODE_CORE_BATCH_PLANS_H_
