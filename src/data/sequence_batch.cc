#include "data/sequence_batch.h"

#include <algorithm>

namespace diffode::data {

Index SequenceBatch::union_size() const {
  std::vector<Scalar> times;
  for (const IrregularSeries* s : series)
    times.insert(times.end(), s->times.begin(), s->times.end());
  std::sort(times.begin(), times.end());
  return static_cast<Index>(std::unique(times.begin(), times.end()) -
                            times.begin());
}

SequenceBatch MakeSequenceBatch(std::vector<const IrregularSeries*> series) {
  SequenceBatch out;
  DIFFODE_CHECK(!series.empty());
  out.batch = static_cast<Index>(series.size());
  out.features = series.front()->num_features();
  for (const IrregularSeries* s : series) {
    DIFFODE_CHECK(s != nullptr);
    DIFFODE_CHECK_GT(s->length(), 0);
    DIFFODE_CHECK_EQ(s->num_features(), out.features);
    for (Index i = 1; i < s->length(); ++i)
      DIFFODE_CHECK_MSG(s->times[static_cast<std::size_t>(i)] >
                            s->times[static_cast<std::size_t>(i - 1)],
                        "SequenceBatch needs strictly increasing times");
    out.lengths.push_back(s->length());
    out.max_len = std::max(out.max_len, s->length());
  }
  out.series = std::move(series);
  return out;
}

SequenceBatch MakeSequenceBatch(const std::vector<IrregularSeries>& split,
                                Index begin, Index count) {
  std::vector<const IrregularSeries*> ptrs;
  ptrs.reserve(static_cast<std::size_t>(count));
  for (Index i = 0; i < count; ++i)
    ptrs.push_back(&split[static_cast<std::size_t>(begin + i)]);
  return MakeSequenceBatch(std::move(ptrs));
}

}  // namespace diffode::data
