#include "core/batch_plans.h"

#include <algorithm>

namespace diffode::core {

BatchPlans BuildBatchPlans(
    const std::vector<std::vector<Scalar>>& norm_queries,
    const std::vector<const std::vector<Scalar>*>& anchors, Scalar step) {
  const Index b = static_cast<Index>(norm_queries.size());
  BatchPlans out;
  out.plans.resize(static_cast<std::size_t>(b));
  out.orig_of_row.reserve(static_cast<std::size_t>(b));
  for (Index r = 0; r < b; ++r) out.orig_of_row.push_back(r);
  out.slots.resize(static_cast<std::size_t>(b));
  out.query_slots.resize(static_cast<std::size_t>(b));
  out.back_row.assign(static_cast<std::size_t>(b), -1);

  std::vector<Scalar> grid;
  for (Index r = 0; r < b; ++r) {
    const std::vector<Scalar>& queries =
        norm_queries[static_cast<std::size_t>(r)];
    std::vector<Scalar>& sl = out.slots[static_cast<std::size_t>(r)];
    sl = queries;
    std::sort(sl.begin(), sl.end());
    sl.erase(std::unique(sl.begin(), sl.end()), sl.end());
    const auto slot_of = [&sl](Scalar t) -> Index {
      const auto it = std::lower_bound(sl.begin(), sl.end(), t);
      if (it != sl.end() && *it == t) return static_cast<Index>(it - sl.begin());
      return -1;
    };
    std::vector<Index>& qs = out.query_slots[static_cast<std::size_t>(r)];
    qs.reserve(queries.size());
    for (Scalar t : queries) qs.push_back(slot_of(t));

    grid = sl;
    const std::vector<Scalar>* anchor = anchors[static_cast<std::size_t>(r)];
    if (anchor != nullptr) {
      DIFFODE_CHECK_MSG((anchor->empty() || anchor->front() >= 0.0) &&
                            std::is_sorted(anchor->begin(), anchor->end()),
                        "BuildBatchPlans needs non-decreasing anchors >= 0");
      grid.insert(grid.end(), anchor->begin(), anchor->end());
    }
    std::sort(grid.begin(), grid.end());
    grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
    {
      ode::RowPlan& plan = out.plans[static_cast<std::size_t>(r)];
      Scalar t_prev = 0.0;
      for (Scalar t : grid) {
        if (t < 0.0) continue;
        ode::AppendSegment(&plan, t_prev, t, step);
        const Index slot = slot_of(t);
        if (slot >= 0) ode::AppendCheckpoint(&plan, slot);
        t_prev = t;
      }
    }
    if (!sl.empty() && sl.front() < 0.0) {
      out.back_row[static_cast<std::size_t>(r)] =
          static_cast<Index>(out.plans.size());
      out.plans.emplace_back();
      out.orig_of_row.push_back(r);
      ode::RowPlan& plan = out.plans.back();
      Scalar t_prev = 0.0;
      for (auto it = grid.rbegin(); it != grid.rend(); ++it) {
        if (*it >= 0.0) continue;  // anchors are all >= 0, so every
        ode::AppendSegment(&plan, t_prev, *it, step);
        ode::AppendCheckpoint(&plan, slot_of(*it));  // negative is a query
        t_prev = *it;
      }
    }
  }
  return out;
}

}  // namespace diffode::core
