// core::BuildBatchPlans, the one DIFFODE step timeline that both the tape
// forward (DiffOde::StatesAt) and the lockstep serving engine walk: query
// slots, the forward and backward rows, the observation anchors as grid
// points (the engine's form) and, passed as queries too, as the checkpoints
// the tape forward reads its consistency term from.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "autograd/ops.h"
#include "core/batch_plans.h"
#include "ode/diff_integrator.h"

namespace diffode::core {
namespace {

constexpr Scalar kStep = 0.3;

// The steps ForEachStep takes from t = 0 through a sorted grid of t >= 0.
std::vector<ode::RowStep> GridSteps(const std::vector<Scalar>& grid) {
  std::vector<ode::RowStep> steps;
  Scalar t_prev = 0.0;
  for (Scalar t : grid) {
    ode::ForEachStep(t_prev, t, kStep, [&steps](Scalar s, Scalar h) {
      steps.push_back(ode::RowStep{s, h});
    });
    t_prev = t;
  }
  return steps;
}

// Where a row stands after `k` steps of `plan`.
Scalar TimeAfter(const ode::RowPlan& plan, Index k) {
  if (k == 0) return 0.0;
  const ode::RowStep& last = plan.steps[static_cast<std::size_t>(k - 1)];
  return last.t + last.h;
}

TEST(BatchPlansTest, UnsortedDuplicateQueriesGetSortedUniqueSlots) {
  const BatchPlans bp =
      BuildBatchPlans({{2.5, 0.7, 2.5, 1.0, 0.7}}, {nullptr}, kStep);
  ASSERT_EQ(bp.plans.size(), 1u);
  EXPECT_EQ(bp.slots[0], (std::vector<Scalar>{0.7, 1.0, 2.5}));
  EXPECT_EQ(bp.query_slots[0], (std::vector<Index>{2, 0, 2, 1, 0}));
  EXPECT_EQ(bp.back_row[0], -1);
  // One checkpoint per slot, in slot order, where the row stands at it.
  const ode::RowPlan& plan = bp.plans[0];
  ASSERT_EQ(plan.checkpoints.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(plan.checkpoints[k].tag, static_cast<Index>(k));
    EXPECT_NEAR(TimeAfter(plan, plan.checkpoints[k].after_steps),
                bp.slots[0][k], 1e-12);
  }
}

TEST(BatchPlansTest, QueryAtZeroChecksOutAfterZeroSteps) {
  const BatchPlans bp = BuildBatchPlans({{1.0, 0.0}}, {nullptr}, kStep);
  const ode::RowPlan& plan = bp.plans[0];
  ASSERT_EQ(plan.checkpoints.size(), 2u);
  EXPECT_EQ(plan.checkpoints[0].after_steps, 0);
  EXPECT_EQ(plan.checkpoints[0].tag, 0);
  // 1.0 = 0.3 + 0.3 + 0.3 + 0.1.
  EXPECT_EQ(plan.checkpoints[1].after_steps, 4);
  EXPECT_EQ(bp.query_slots[0], (std::vector<Index>{1, 0}));
}

TEST(BatchPlansTest, NegativeQueriesGetABackwardRowInDescendingTime) {
  // Row 0 has two negative queries, row 1 none.
  const BatchPlans bp = BuildBatchPlans({{1.0, -0.5, -2.0, -0.5}, {0.4}},
                                        {nullptr, nullptr}, kStep);
  ASSERT_EQ(bp.plans.size(), 3u);
  EXPECT_EQ(bp.back_row, (std::vector<Index>{2, -1}));
  EXPECT_EQ(bp.orig_of_row, (std::vector<Index>{0, 1, 0}));
  EXPECT_EQ(bp.slots[0], (std::vector<Scalar>{-2.0, -0.5, 1.0}));
  EXPECT_EQ(bp.query_slots[0], (std::vector<Index>{2, 1, 0, 1}));
  // The forward row reads only the t >= 0 query.
  ASSERT_EQ(bp.plans[0].checkpoints.size(), 1u);
  EXPECT_EQ(bp.plans[0].checkpoints[0].tag, 2);
  // The backward row steps down from t = 0 and checks out -0.5, then -2.0.
  const ode::RowPlan& back = bp.plans[2];
  Scalar t = 0.0;
  for (const ode::RowStep& s : back.steps) {
    EXPECT_EQ(s.t, t);
    EXPECT_LT(s.h, 0.0);
    t = s.t + s.h;
  }
  EXPECT_NEAR(t, -2.0, 1e-12);
  ASSERT_EQ(back.checkpoints.size(), 2u);
  EXPECT_EQ(back.checkpoints[0].tag, 1);
  EXPECT_EQ(back.checkpoints[1].tag, 0);
  EXPECT_LT(back.checkpoints[0].after_steps, back.checkpoints[1].after_steps);
  for (const ode::RowCheckpoint& c : back.checkpoints)
    EXPECT_NEAR(TimeAfter(back, c.after_steps),
                bp.slots[0][static_cast<std::size_t>(c.tag)], 1e-12);
}

// Observation anchors (the first observation at 0, a repeated time) and
// queries on both sides of them, one coinciding with an anchor.
const std::vector<Scalar> kAnchors = {0.0, 0.45, 1.2, 1.2, 2.0, 3.1};
const std::vector<Scalar> kQueries = {2.0, 0.9, -1.0};

TEST(BatchPlansTest, AnchorsFoldIntoTheForwardGrid) {
  const BatchPlans bp = BuildBatchPlans({kQueries}, {&kAnchors}, kStep);
  const std::vector<Scalar> merged = {0.0, 0.45, 0.9, 1.2, 2.0, 3.1};
  const std::vector<ode::RowStep> want = GridSteps(merged);
  const ode::RowPlan& plan = bp.plans[0];
  ASSERT_EQ(plan.steps.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(plan.steps[i].t, want[i].t) << i;
    EXPECT_EQ(plan.steps[i].h, want[i].h) << i;
  }
  // Anchors are no checkpoints: only the two t >= 0 queries check out, the
  // one at 2.0 where the row stands at that anchor.
  ASSERT_EQ(plan.checkpoints.size(), 2u);
  EXPECT_EQ(bp.slots[0], (std::vector<Scalar>{-1.0, 0.9, 2.0}));
  EXPECT_EQ(plan.checkpoints[0].tag, 1);
  EXPECT_EQ(plan.checkpoints[1].tag, 2);
  for (const ode::RowCheckpoint& c : plan.checkpoints)
    EXPECT_EQ(TimeAfter(plan, c.after_steps),
              bp.slots[0][static_cast<std::size_t>(c.tag)]);
  // The negative query's backward row is unaffected by the anchors.
  ASSERT_GE(bp.back_row[0], 0);
  EXPECT_EQ(bp.plans[static_cast<std::size_t>(bp.back_row[0])].steps.size(),
            GridSteps({1.0}).size());
}

TEST(BatchPlansTest, RejectsAnchorsOutOfOrderOrBeforeZero) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<Scalar> unsorted = {0.0, 1.5, 0.7};
  const std::vector<Scalar> negative = {-0.5, 0.0, 1.0};
  EXPECT_DEATH(BuildBatchPlans({{1.0}}, {&unsorted}, kStep), "anchors");
  EXPECT_DEATH(BuildBatchPlans({{1.0}}, {&negative}, kStep), "anchors");
}

TEST(BatchPlansTest, AnchorQueriesHoldTheIntegrateVarStateAtEachAnchor) {
  // A nonlinear, time-dependent field, so any difference in the step
  // sequence would show in the state bits.
  const ode::DiffOdeFunc f = [](Scalar t, const ag::Var& y) {
    return ag::MulScalar(ag::Sin(y), 3.0 * std::cos(t));
  };
  ag::NoGradScope no_grad;
  const ag::Var y0 = ag::Constant(Tensor::FromRows(1, 2, {0.4, -1.3}));
  // The anchors passed as queries too, after the row's own queries, as the
  // tape forward does while the consistency term is on.
  std::vector<Scalar> queries = kQueries;
  queries.insert(queries.end(), kAnchors.begin(), kAnchors.end());
  const BatchPlans bp = BuildBatchPlans({queries}, {&kAnchors}, kStep);
  const ode::RowPlan& plan = bp.plans[0];
  // The extra queries add checkpoints but no step.
  const BatchPlans grid_only = BuildBatchPlans({kQueries}, {&kAnchors}, kStep);
  ASSERT_EQ(plan.steps.size(), grid_only.plans[0].steps.size());
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    EXPECT_EQ(plan.steps[i].t, grid_only.plans[0].steps[i].t) << i;
    EXPECT_EQ(plan.steps[i].h, grid_only.plans[0].steps[i].h) << i;
  }
  // The forward grid points, in order.
  const std::vector<Scalar> grid = {0.0, 0.45, 0.9, 1.2, 2.0, 3.1};
  for (ode::DiffMethod method : {ode::DiffMethod::kEuler,
                                 ode::DiffMethod::kMidpoint,
                                 ode::DiffMethod::kRk4}) {
    // The plan walk's state at every step count.
    std::vector<Tensor> walked = {y0.value()};
    ag::Var walk = y0;
    for (const ode::RowStep& s : plan.steps) {
      walk = ode::Step(f, method, s.t, walk, s.h);
      walked.push_back(walk.value());
    }
    // The interval unroll, one grid point after the other.
    std::vector<Tensor> at_grid;
    ag::Var y = y0;
    Scalar t_prev = 0.0;
    for (Scalar t : grid) {
      y = ode::IntegrateVar(f, y, t_prev, t, {method, kStep});
      at_grid.push_back(y.value());
      t_prev = t;
    }
    for (std::size_t i = 0; i < kAnchors.size(); ++i) {
      const Index slot = bp.query_slots[0][kQueries.size() + i];
      EXPECT_EQ(bp.slots[0][static_cast<std::size_t>(slot)], kAnchors[i]);
      const auto cp = std::find_if(
          plan.checkpoints.begin(), plan.checkpoints.end(),
          [slot](const ode::RowCheckpoint& c) { return c.tag == slot; });
      ASSERT_NE(cp, plan.checkpoints.end()) << "anchor " << i;
      const auto g = std::find(grid.begin(), grid.end(), kAnchors[i]);
      ASSERT_NE(g, grid.end()) << "anchor " << i;
      const Tensor& got = walked[static_cast<std::size_t>(cp->after_steps)];
      const Tensor& want = at_grid[static_cast<std::size_t>(g - grid.begin())];
      for (Index j = 0; j < 2; ++j)
        EXPECT_EQ(got.at(0, j), want.at(0, j)) << "anchor " << i;
    }
  }
}

}  // namespace
}  // namespace diffode::core
