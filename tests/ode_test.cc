// The two integrators that run: the tape unroll IntegrateVar (training and
// per-sequence evaluation) and the lockstep engine LockstepIntegrate<T>
// (serving), the latter with an f64 and an f32 right-hand side.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "autograd/ops.h"
#include "gradcheck.h"
#include "ode/diff_integrator.h"
#include "ode/lockstep.h"

namespace diffode::ode {
namespace {

// dy/dt = c(t)·g(y) elementwise, with g the identity or sin. The tape and
// the lockstep RHS evaluate the same expression per element, so at f64 the
// two integrators must agree bitwise.
struct Field {
  Scalar (*c)(Scalar t);
  bool sine = false;

  ag::Var Tape(Scalar t, const ag::Var& y) const {
    return ag::MulScalar(sine ? ag::Sin(y) : y, c(t));
  }
  template <typename T>
  T At(Scalar t, T y) const {
    return (sine ? static_cast<T>(std::sin(y)) : y) * static_cast<T>(c(t));
  }
};

Scalar MinusOne(Scalar) { return -1.0; }
Scalar CosT(Scalar t) { return std::cos(t); }
Scalar TenCosT(Scalar t) { return 10.0 * std::cos(t); }

// y' = -y: y(t) = y(t0)·exp(-(t - t0)).
constexpr Field kDecay{MinusOne};
// y' = y·cos t, y(0) = 1: y(t) = exp(sin t).
constexpr Field kCosGrowth{CosT};
// y' = 10 sin(y)·cos t: nonlinear in y and explicit in t. The factor 10
// makes each step's update comparable to y, so a rounding difference in the
// stage combines reaches the state instead of vanishing below y's ulp.
constexpr Field kSineField{TenCosT, true};

Tensor SolveTape(const Field& field, DiffMethod method, Scalar step,
                 const Tensor& y0, Scalar t0, Scalar t1) {
  ag::NoGradScope no_grad;
  DiffOdeFunc f = [&field](Scalar t, const ag::Var& y) {
    return field.Tape(t, y);
  };
  return IntegrateVar(f, ag::Constant(y0), t0, t1, {method, step}).value();
}

template <typename T>
BatchedRhsT<T> LockstepRhs(const Field& field, Index* evals = nullptr) {
  return [&field, evals](const std::vector<Index>&,
                         const std::vector<Scalar>& t, const TensorT<T>& y) {
    if (evals != nullptr) ++*evals;
    TensorT<T> out = TensorT<T>::Uninit(y.shape());
    const Index d = y.cols();
    for (Index i = 0; i < y.rows(); ++i)
      for (Index j = 0; j < d; ++j)
        out.data()[i * d + j] =
            field.At(t[static_cast<std::size_t>(i)], y.data()[i * d + j]);
    return out;
  };
}

// One row through LockstepIntegrate<T> over the plan of [t0, t1].
template <typename T>
Tensor SolveLockstep(const Field& field, DiffMethod method, Scalar step,
                     Tensor y0, Scalar t0, Scalar t1) {
  std::vector<RowPlan> plans(1);
  AppendSegment(&plans[0], t0, t1, step);
  LockstepIntegrate<T>(plans, method, LockstepRhs<T>(field), {}, &y0);
  return y0;
}

enum class Engine { kTape, kLockstepF64, kLockstepF32 };

Tensor Solve(Engine engine, const Field& field, DiffMethod method,
             Scalar step, const Tensor& y0, Scalar t0, Scalar t1) {
  switch (engine) {
    case Engine::kTape:
      return SolveTape(field, method, step, y0, t0, t1);
    case Engine::kLockstepF64:
      return SolveLockstep<Scalar>(field, method, step, y0, t0, t1);
    case Engine::kLockstepF32:
      return SolveLockstep<float>(field, method, step, y0, t0, t1);
  }
  return {};
}

const char* EngineName(Engine engine) {
  switch (engine) {
    case Engine::kTape:
      return "tape";
    case Engine::kLockstepF64:
      return "lockstep_f64";
    case Engine::kLockstepF32:
      return "lockstep_f32";
  }
  return "";
}

const char* MethodName(DiffMethod method) {
  switch (method) {
    case DiffMethod::kEuler:
      return "euler";
    case DiffMethod::kMidpoint:
      return "midpoint";
    case DiffMethod::kRk4:
      return "rk4";
  }
  return "";
}

Tensor One() { return Tensor::Ones(Shape{1, 1}); }

// ---------------------------------------------------------------------------
// Convergence order, every integrator x every scheme.
// ---------------------------------------------------------------------------

class IntegratorOrderTest
    : public ::testing::TestWithParam<std::tuple<Engine, DiffMethod>> {};

TEST_P(IntegratorOrderTest, EmpiricalOrderMatches) {
  const auto [engine, method] = GetParam();
  const double expected = method == DiffMethod::kEuler      ? 1.0
                          : method == DiffMethod::kMidpoint ? 2.0
                                                            : 4.0;
  // Halving h from 0.05 on [0, 2] must divide the error by 2^order. The f32
  // engine keeps the f64 bound: its RHS rounding adds ~1e-9 to RK4's ~4e-9
  // error at h = 0.025 (measured order 4.00, vs 4.01 at f64).
  auto error = [&](Scalar h) {
    return std::fabs(
        Solve(engine, kCosGrowth, method, h, One(), 0.0, 2.0).item() -
        std::exp(std::sin(2.0)));
  };
  const double e1 = error(0.05);
  const double e2 = error(0.025);
  ASSERT_GT(e1, 0.0);
  ASSERT_GT(e2, 0.0);
  EXPECT_NEAR(std::log2(e1 / e2), expected, 0.6);
}

INSTANTIATE_TEST_SUITE_P(
    AllIntegrators, IntegratorOrderTest,
    ::testing::Combine(::testing::Values(Engine::kTape, Engine::kLockstepF64,
                                         Engine::kLockstepF32),
                       ::testing::Values(DiffMethod::kEuler,
                                         DiffMethod::kMidpoint,
                                         DiffMethod::kRk4)),
    [](const auto& info) {
      return std::string(EngineName(std::get<0>(info.param))) + "_" +
             MethodName(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Step grid: partial final step, backward time, zero-length interval.
// ---------------------------------------------------------------------------

class IntegratorTest : public ::testing::TestWithParam<Engine> {};

TEST_P(IntegratorTest, PartialFinalStepLandsOnT1) {
  // 0.3 does not divide 1.0. RK4 truncation at h = 0.3 is O(1e-5); a
  // mishandled final step would be off by O(1e-1).
  const Tensor y =
      Solve(GetParam(), kDecay, DiffMethod::kRk4, 0.3, One(), 0.0, 1.0);
  EXPECT_NEAR(y.item(), std::exp(-1.0), 1e-4);
}

TEST_P(IntegratorTest, BackwardInTime) {
  const Engine engine = GetParam();
  const Tensor back =
      Solve(engine, kDecay, DiffMethod::kRk4, 0.05, One(), 0.0, -1.0);
  EXPECT_NEAR(back.item(), std::exp(1.0), 1e-5);
  // Forward then back recovers the start (f32 included: ~1e-9 measured).
  const Tensor y1 =
      Solve(engine, kDecay, DiffMethod::kRk4, 0.05, One(), 0.0, 1.0);
  const Tensor y0 = Solve(engine, kDecay, DiffMethod::kRk4, 0.05, y1, 1.0, 0.0);
  EXPECT_NEAR(y0.item(), 1.0, 1e-7);
}

TEST_P(IntegratorTest, ZeroLengthIntervalIsIdentity) {
  const Tensor y0 = Tensor::FromRows(1, 2, {2.0, 3.0});
  const Tensor y = Solve(GetParam(), kDecay, DiffMethod::kRk4, 0.05, y0, 1.0,
                         1.0);
  EXPECT_EQ((y - y0).MaxAbs(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllIntegrators, IntegratorTest,
                         ::testing::Values(Engine::kTape, Engine::kLockstepF64,
                                           Engine::kLockstepF32),
                         [](const auto& info) {
                           return std::string(EngineName(info.param));
                         });

TEST(StepGridTest, AppendSegmentClampsTheLastStep) {
  RowPlan plan;
  AppendSegment(&plan, 0.0, 1.0, 0.3);
  ASSERT_EQ(plan.steps.size(), 4u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(plan.steps[i].h, 0.3);
  EXPECT_NEAR(plan.steps[3].h, 0.1, 1e-15);
  EXPECT_NEAR(plan.steps[3].t + plan.steps[3].h, 1.0, 1e-15);
}

TEST(StepGridTest, AppendSegmentStepsBackward) {
  RowPlan plan;
  AppendSegment(&plan, 1.0, 0.0, 0.25);
  ASSERT_EQ(plan.steps.size(), 4u);
  EXPECT_EQ(plan.steps[0].t, 1.0);
  for (const RowStep& s : plan.steps) EXPECT_EQ(s.h, -0.25);
}

TEST(StepGridTest, ZeroLengthSegmentAddsNoStep) {
  RowPlan plan;
  AppendSegment(&plan, 1.0, 1.0, 0.05);
  EXPECT_TRUE(plan.steps.empty());
}

// ---------------------------------------------------------------------------
// Lockstep vs the per-sequence unroll.
// ---------------------------------------------------------------------------

// A row's timeline: segments to integrate and checkpoints (tag >= 0) that
// apply the jump y <- 2y + (tag + 1), which does not commute across tags.
struct Op {
  Scalar t0 = 0.0, t1 = 0.0;
  Index tag = -1;
};
using Timeline = std::vector<Op>;

Op Seg(Scalar t0, Scalar t1) { return Op{t0, t1, -1}; }
Op Jump(Index tag) { return Op{0.0, 0.0, tag}; }

void ApplyJump(Index tag, Scalar* row, Index d) {
  for (Index j = 0; j < d; ++j)
    row[j] = 2.0 * row[j] + static_cast<Scalar>(tag + 1);
}

// Per-sequence reference: IntegrateVar segment by segment, jumps in order.
Tensor ReplayRow(const Timeline& ops, const Field& field, DiffMethod method,
                 Scalar step, Tensor y) {
  for (const Op& op : ops) {
    if (op.tag >= 0) {
      ApplyJump(op.tag, y.data(), y.cols());
    } else {
      y = SolveTape(field, method, step, y, op.t0, op.t1);
    }
  }
  return y;
}

RowPlan PlanOf(const Timeline& ops, Scalar step) {
  RowPlan plan;
  for (const Op& op : ops) {
    if (op.tag >= 0) {
      AppendCheckpoint(&plan, op.tag);
    } else {
      AppendSegment(&plan, op.t0, op.t1, step);
    }
  }
  return plan;
}

Tensor RowOf(const Tensor& y, Index r) {
  return Tensor::FromRows(1, y.cols(),
                          std::vector<Scalar>(y.data() + r * y.cols(),
                                              y.data() + (r + 1) * y.cols()));
}

TEST(LockstepTest, RaggedBidirectionalRowsMatchTapeBitwise) {
  // B = 3 rows with spans of 13, 27 and 17 steps; the last runs backward.
  const std::vector<Timeline> rows = {
      {Seg(0.0, 1.3)}, {Seg(0.2, 2.9)}, {Seg(1.0, -0.7)}};
  const Tensor y0 = Tensor::FromRows(3, 2, {0.4, -1.1, 2.0, 0.3, -0.8, 1.5});
  const Scalar step = 0.1;
  std::vector<RowPlan> plans;
  for (const Timeline& ops : rows) plans.push_back(PlanOf(ops, step));
  EXPECT_EQ(plans[0].steps.size(), 13u);
  EXPECT_EQ(plans[1].steps.size(), 27u);
  EXPECT_EQ(plans[2].steps.size(), 17u);
  for (DiffMethod method :
       {DiffMethod::kEuler, DiffMethod::kMidpoint, DiffMethod::kRk4}) {
    Tensor y = y0;
    Index evals = 0;
    LockstepIntegrate<Scalar>(plans, method,
                              LockstepRhs<Scalar>(kSineField, &evals), {}, &y);
    // One wave per step of the longest plan, one RHS call per stage.
    const Index stages = method == DiffMethod::kEuler      ? 1
                         : method == DiffMethod::kMidpoint ? 2
                                                           : 4;
    EXPECT_EQ(evals, 27 * stages) << MethodName(method);
    for (Index r = 0; r < 3; ++r) {
      const Tensor ref = ReplayRow(rows[static_cast<std::size_t>(r)],
                                   kSineField, method, step, RowOf(y0, r));
      for (Index j = 0; j < 2; ++j)
        EXPECT_EQ(y.at(r, j), ref.at(0, j))
            << MethodName(method) << " row " << r << " col " << j;
    }
  }
}

TEST(LockstepTest, CoincidentCheckpointsFireInTagOrderAcrossWaves) {
  // Rows 0 and 2 carry two or three checkpoints at one step index, row 1
  // two before its first step. Each must fire in tag order, one per wave,
  // with no step between them.
  const std::vector<Timeline> rows = {
      {Seg(0.0, 1.0), Jump(0), Jump(1), Seg(1.0, 1.5), Jump(2)},
      {Jump(0), Jump(1), Seg(0.0, 0.5), Jump(2)},
      {Seg(0.5, -0.5), Jump(0), Jump(1), Jump(2)}};
  const Tensor y0 = Tensor::FromRows(3, 2, {1.0, -0.5, 0.25, 2.0, -1.5, 0.75});
  const Scalar step = 0.25;
  std::vector<RowPlan> plans;
  for (const Timeline& ops : rows) plans.push_back(PlanOf(ops, step));

  struct Fired {
    Index wave, row, tag, evals;
  };
  std::vector<Fired> fired;
  Index waves = 0, evals = 0;
  LockstepEventFn on_event = [&](const std::vector<LockstepEvent>& events,
                                 Tensor* y) {
    std::vector<bool> seen(3, false);
    for (const LockstepEvent& e : events) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(e.row)])
          << "row " << e.row << " twice in wave " << waves;
      seen[static_cast<std::size_t>(e.row)] = true;
      fired.push_back(Fired{waves, e.row, e.tag, evals});
      ApplyJump(e.tag, y->data() + e.row * y->cols(), y->cols());
    }
    ++waves;
  };
  Tensor y = y0;
  LockstepIntegrate<Scalar>(plans, DiffMethod::kMidpoint,
                            LockstepRhs<Scalar>(kSineField, &evals), on_event,
                            &y);

  for (Index r = 0; r < 3; ++r) {
    std::vector<Fired> mine;
    for (const Fired& f : fired)
      if (f.row == r) mine.push_back(f);
    ASSERT_EQ(mine.size(), 3u) << "row " << r;
    const auto& cps = plans[static_cast<std::size_t>(r)].checkpoints;
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(mine[k].tag, static_cast<Index>(k)) << "row " << r;
      if (k == 0) continue;
      if (cps[k].after_steps == cps[k - 1].after_steps) {
        // Same step index: the next wave, with no RHS evaluation between.
        EXPECT_EQ(mine[k].wave, mine[k - 1].wave + 1) << "row " << r;
        EXPECT_EQ(mine[k].evals, mine[k - 1].evals) << "row " << r;
      } else {
        EXPECT_GT(mine[k].evals, mine[k - 1].evals) << "row " << r;
      }
    }
  }

  // The jumps do not commute, so the end state pins the firing order.
  for (Index r = 0; r < 3; ++r) {
    const Tensor ref = ReplayRow(rows[static_cast<std::size_t>(r)], kSineField,
                                 DiffMethod::kMidpoint, step, RowOf(y0, r));
    for (Index j = 0; j < 2; ++j) EXPECT_EQ(y.at(r, j), ref.at(0, j));
  }
}

TEST(LockstepTest, ReadoutsAlongChainedSegmentsMatchClosedForm) {
  // Checkpoints as readouts at 0.3, 0.7 and 1.5 along one row: each reads
  // exp(-t) and equals the chained per-sequence unroll bitwise.
  const std::vector<Scalar> times = {0.0, 0.3, 0.7, 1.5};
  std::vector<RowPlan> plans(1);
  for (std::size_t i = 1; i < times.size(); ++i) {
    AppendSegment(&plans[0], times[i - 1], times[i], 0.05);
    AppendCheckpoint(&plans[0], static_cast<Index>(i));
  }
  std::vector<Scalar> read(times.size(), 0.0);
  LockstepEventFn on_event = [&read](const std::vector<LockstepEvent>& events,
                                     Tensor* y) {
    for (const LockstepEvent& e : events)
      read[static_cast<std::size_t>(e.tag)] = y->at(e.row, 0);
  };
  Tensor y = One();
  LockstepIntegrate<Scalar>(plans, DiffMethod::kRk4,
                            LockstepRhs<Scalar>(kDecay), on_event, &y);
  Tensor chained = One();
  for (std::size_t i = 1; i < times.size(); ++i) {
    chained = SolveTape(kDecay, DiffMethod::kRk4, 0.05, chained,
                        times[i - 1], times[i]);
    EXPECT_EQ(read[i], chained.item()) << i;
    EXPECT_NEAR(read[i], std::exp(-times[i]), 1e-6) << i;
  }
}

// ---------------------------------------------------------------------------
// Differentiable integrator.
// ---------------------------------------------------------------------------

TEST(DiffIntegratorTest, Rk4MatchesClosedFormDecay) {
  DiffSolveOptions options;
  options.method = DiffMethod::kRk4;
  options.step = 0.05;
  ode::DiffOdeFunc f = [](Scalar, const ag::Var& y) { return ag::Neg(y); };
  ag::Var y0 = ag::Constant(Tensor::Ones(Shape{1, 1}));
  ag::Var y1 = IntegrateVar(f, y0, 0.0, 1.0, options);
  EXPECT_NEAR(y1.value().item(), std::exp(-1.0), 1e-7);
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

}  // namespace
}  // namespace diffode::ode
