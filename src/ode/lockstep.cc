#include "ode/lockstep.h"

#include <type_traits>

#include "tensor/kernels.h"

namespace diffode::ode {

template <typename T>
void LockstepIntegrate(const std::vector<RowPlan>& plans, DiffMethod method,
                       const BatchedRhsT<T>& rhs,
                       const LockstepEventFn& on_event, Tensor* y) {
  const Index b = static_cast<Index>(plans.size());
  DIFFODE_CHECK_EQ(y->rows(), b);
  const Index d = y->cols();
  std::vector<Index> steps_done(static_cast<std::size_t>(b), 0);
  std::vector<std::size_t> next_cp(static_cast<std::size_t>(b), 0);

  std::vector<LockstepEvent> events;
  std::vector<Index> active;
  std::vector<Scalar> t0, h, tt;
  Tensor packed, stage;
  TensorT<T> narrow, k1, k2, k3, k4;

  // The RHS on an f64 stage state: passed through at T = double, narrowed
  // into the reused `narrow` buffer otherwise.
  const auto eval = [&](const std::vector<Scalar>& t,
                        const Tensor& state) -> TensorT<T> {
    if constexpr (std::is_same_v<T, Scalar>) {
      return rhs(active, t, state);
    } else {
      // Compare shapes, not sizes: an unallocated buffer has the rank-0
      // shape, whose numel() is 1 like a 1 x 1 state's.
      if (narrow.shape() != state.shape())
        narrow = TensorT<T>::Uninit(state.shape());
      const Scalar* s = state.data();
      T* dst = narrow.data();
      for (Index i = 0; i < state.numel(); ++i) dst[i] = static_cast<T>(s[i]);
      return rhs(active, t, narrow);
    }
  };
  // out[i] = y[i] + k[i] * (factor * h_row) in f64 — AxpyForward's
  // expression, with k widened on the fly.
  const auto axpy_rows = [&h](const Tensor& yv, const TensorT<T>& k,
                              Scalar factor, Index a, Index d, Tensor* out) {
    for (Index i = 0; i < a; ++i) {
      const Scalar hi = factor * h[static_cast<std::size_t>(i)];
      const Scalar* yr = yv.data() + i * d;
      const T* kr = k.data() + i * d;
      Scalar* o = out->data() + i * d;
      for (Index j = 0; j < d; ++j)
        o[j] = yr[j] + static_cast<Scalar>(kr[j]) * hi;
    }
  };
  // Stage times t0 + factor * h per row.
  const auto stage_times = [&](Scalar factor, Index a) {
    tt.resize(static_cast<std::size_t>(a));
    for (Index i = 0; i < a; ++i)
      tt[static_cast<std::size_t>(i)] = t0[static_cast<std::size_t>(i)] +
                                        factor * h[static_cast<std::size_t>(i)];
  };

  for (;;) {
    // Fire due checkpoints first — one per row per wave, so several
    // checkpoints at the same step index apply in tag order (matching the
    // per-sequence interleave of jumps and readouts at coincident times).
    for (;;) {
      events.clear();
      for (Index r = 0; r < b; ++r) {
        const auto& cps = plans[static_cast<std::size_t>(r)].checkpoints;
        std::size_t& cp = next_cp[static_cast<std::size_t>(r)];
        if (cp < cps.size() &&
            cps[cp].after_steps == steps_done[static_cast<std::size_t>(r)]) {
          events.push_back(LockstepEvent{r, cps[cp].tag});
          ++cp;
        }
      }
      if (events.empty()) break;
      on_event(events, y);
    }

    // Pack the rows that still have steps to take.
    active.clear();
    t0.clear();
    h.clear();
    for (Index r = 0; r < b; ++r) {
      const auto& steps = plans[static_cast<std::size_t>(r)].steps;
      const Index done = steps_done[static_cast<std::size_t>(r)];
      if (done < static_cast<Index>(steps.size())) {
        active.push_back(r);
        t0.push_back(steps[static_cast<std::size_t>(done)].t);
        h.push_back(steps[static_cast<std::size_t>(done)].h);
      }
    }
    if (active.empty()) return;
    const Index a = static_cast<Index>(active.size());
    packed = Tensor::Uninit(Shape{a, d});
    kernels::SelectRows(a, d, active.data(), y->data(), packed.data());

    // One step per active row, same stage structure and stage-time
    // expressions as the per-sequence EulerStep/MidpointStep/Rk4Step.
    switch (method) {
      case DiffMethod::kEuler: {
        k1 = eval(t0, packed);
        axpy_rows(packed, k1, 1.0, a, d, &packed);
        break;
      }
      case DiffMethod::kMidpoint: {
        k1 = eval(t0, packed);
        stage = Tensor::Uninit(Shape{a, d});
        axpy_rows(packed, k1, 0.5, a, d, &stage);
        stage_times(0.5, a);
        k2 = eval(tt, stage);
        axpy_rows(packed, k2, 1.0, a, d, &packed);
        break;
      }
      case DiffMethod::kRk4: {
        k1 = eval(t0, packed);
        stage = Tensor::Uninit(Shape{a, d});
        axpy_rows(packed, k1, 0.5, a, d, &stage);
        stage_times(0.5, a);
        k2 = eval(tt, stage);
        axpy_rows(packed, k2, 0.5, a, d, &stage);
        k3 = eval(tt, stage);
        axpy_rows(packed, k3, 1.0, a, d, &stage);
        stage_times(1.0, a);
        k4 = eval(tt, stage);
        // Rk4CombineForward's expression, k widened on the fly.
        for (Index i = 0; i < a; ++i) {
          const Scalar h6 = h[static_cast<std::size_t>(i)] / 6.0;
          Scalar* o = packed.data() + i * d;
          const T* a1 = k1.data() + i * d;
          const T* a2 = k2.data() + i * d;
          const T* a3 = k3.data() + i * d;
          const T* a4 = k4.data() + i * d;
          for (Index j = 0; j < d; ++j)
            o[j] = o[j] + h6 * ((static_cast<Scalar>(a1[j]) +
                                 2.0 * static_cast<Scalar>(a2[j])) +
                                (2.0 * static_cast<Scalar>(a3[j]) +
                                 static_cast<Scalar>(a4[j])));
        }
        break;
      }
    }
    kernels::ScatterRows(a, d, active.data(), packed.data(), y->data());
    for (Index r : active) ++steps_done[static_cast<std::size_t>(r)];
  }
}

template void LockstepIntegrate<Scalar>(const std::vector<RowPlan>&,
                                        DiffMethod, const BatchedRhsT<Scalar>&,
                                        const LockstepEventFn&, Tensor*);
template void LockstepIntegrate<float>(const std::vector<RowPlan>&,
                                       DiffMethod, const BatchedRhsT<float>&,
                                       const LockstepEventFn&, Tensor*);

}  // namespace diffode::ode
