#ifndef DIFFODE_ODE_LOCKSTEP_H_
#define DIFFODE_ODE_LOCKSTEP_H_

#include <functional>
#include <vector>

#include "ode/diff_integrator.h"
#include "tensor/tensor.h"

// Lockstep batched integration: B independent trajectories packed into one
// B x d state matrix, advanced together so the RHS sees B x d operands (the
// GEMM regime where the SIMD backend pays) instead of B separate 1 x d rows.
//
// Equivalence contract. Each row follows its OWN precomputed step timeline
// (RowPlan, ode/diff_integrator.h) — the exact (t, h) sequence IntegrateVar
// would produce for that sequence (AppendSegment and IntegrateVar walk one
// step grid, ode::ForEachStep).
// The engine batches only across rows; it never inserts another row's time
// as a stop point. Per-row stage updates use the same expressions as the
// per-sequence unroll, and row packing/unpacking is a pure copy, so a row's
// trajectory differs from its per-sequence run only through the RHS
// (tests/batched_equiv_test.cc states the DIFFODE engine's bounds).
namespace diffode::ode {

// RHS over the packed active rows. `rows[i]` is the batch row stored at row i
// of `y_active` (a x d); `t[i]` is that row's current stage time. Returns the
// a x d derivative block in the RHS dtype T. Plans and stage times stay f64
// for every T: the timeline replay is bit-identical across precisions, so an
// f32 RHS integrates the exact f64 step grids.
template <typename T>
using BatchedRhsT = std::function<TensorT<T>(const std::vector<Index>& rows,
                                             const std::vector<Scalar>& t,
                                             const TensorT<T>& y_active)>;

// One due checkpoint, identified by batch row and the caller's tag.
struct LockstepEvent {
  Index row;
  Index tag;
};

// Handles a wave of due checkpoints. `y` is the full B x d f64 state; the
// handler may overwrite rows (jumps) or just read them (readouts). Within
// one wave each row appears at most once; a row with several checkpoints at
// the same step index receives them in tag order across successive waves.
using LockstepEventFn =
    std::function<void(const std::vector<LockstepEvent>& events, Tensor* y)>;

// Advances every row through its plan. `y` holds one row per plan; rows
// whose plans end early simply stop participating. `on_event` may be empty
// only if no plan has checkpoints.
//
// The carried state, the stage combines and the step sizes are f64 for
// every RHS dtype: the per-step accumulate y += h·Σ bᵢkᵢ is a rounding
// injection point that ill-conditioned dynamics amplify. At T = double the
// RHS sees the stage state itself and the combines are the per-sequence
// integrator's expressions (ag::detail::AxpyForward / Rk4CombineForward),
// so a row's trajectory differs from its per-sequence run only through the
// RHS. At T = float the stage state is narrowed once per stage into a
// reused buffer and the f32 derivative is widened inside the f64 combines.
template <typename T>
void LockstepIntegrate(const std::vector<RowPlan>& plans, DiffMethod method,
                       const BatchedRhsT<T>& rhs,
                       const LockstepEventFn& on_event, Tensor* y);

extern template void LockstepIntegrate<Scalar>(
    const std::vector<RowPlan>&, DiffMethod, const BatchedRhsT<Scalar>&,
    const LockstepEventFn&, Tensor*);
extern template void LockstepIntegrate<float>(const std::vector<RowPlan>&,
                                              DiffMethod,
                                              const BatchedRhsT<float>&,
                                              const LockstepEventFn&, Tensor*);

}  // namespace diffode::ode

#endif  // DIFFODE_ODE_LOCKSTEP_H_
