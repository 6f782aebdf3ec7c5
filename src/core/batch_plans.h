#ifndef DIFFODE_CORE_BATCH_PLANS_H_
#define DIFFODE_CORE_BATCH_PLANS_H_

#include <vector>

#include "ode/lockstep.h"

namespace diffode::core {

// Per-batch lockstep timelines for DIFFODE's batched state evaluation
// (diffode_lockstep.cc). Timeline construction is always f64 and
// dtype-free, so both serving precisions integrate the EXACT same (t, h)
// step grids.
//
// Each batch row gets a forward plan replicating StatesAt's grid:
// sorted-unique query times (plus the observation anchors when the
// consistency term is configured, which change how IntegrateVar partitions
// each span), a forward chain from t = 0 and — for queries before the first
// observation — an extra engine row integrating the backward chain from the
// same initial state. Checkpoints are tagged with the query's index in the
// row's sorted-unique `slots`.
struct BatchPlans {
  // Engine rows: rows [0, b) are the forward chains (engine row r is batch
  // row r); any backward chains follow.
  std::vector<ode::RowPlan> plans;
  // Engine row -> originating batch row (identity for the first b rows).
  std::vector<Index> orig_of_row;
  // Per batch row, the sorted-unique query times; checkpoint tags index
  // into this.
  std::vector<std::vector<Scalar>> slots;
  // Per batch row, its backward engine row, or -1 when every query is at
  // t >= 0.
  std::vector<Index> back_row;
};

// `anchors[r]` lists row r's observation anchor times to fold into the step
// grid (nullptr when the model has no consistency anchoring). `step` is the
// solver step size.
BatchPlans BuildBatchPlans(
    const std::vector<std::vector<Scalar>>& norm_queries,
    const std::vector<const std::vector<Scalar>*>& anchors, Scalar step);

}  // namespace diffode::core

#endif  // DIFFODE_CORE_BATCH_PLANS_H_
