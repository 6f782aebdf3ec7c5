#ifndef DIFFODE_DATA_SEQUENCE_BATCH_H_
#define DIFFODE_DATA_SEQUENCE_BATCH_H_

#include <vector>

#include "data/irregular_series.h"

namespace diffode::data {

// A batch view over B irregular series for lockstep execution
// (core/batched_model.h): the series themselves plus their shapes. The view
// never copies, normalizes or transforms values, so every number a model
// reads through it is bitwise the number in the source series. Each model's
// engine builds its own per-row timelines from the series.
struct SequenceBatch {
  std::vector<const IrregularSeries*> series;

  Index batch = 0;
  Index features = 0;
  Index max_len = 0;
  std::vector<Index> lengths;

  // Number of distinct raw observation times across the batch, computed on
  // call: the stops a shared union-grid integration would make.
  Index union_size() const;
};

// Builds the batch view. Requires a non-empty list of non-empty series with
// matching feature counts and strictly increasing times (the documented
// IrregularSeries contract).
SequenceBatch MakeSequenceBatch(std::vector<const IrregularSeries*> series);

// Convenience overload over a contiguous split.
SequenceBatch MakeSequenceBatch(const std::vector<IrregularSeries>& split,
                                Index begin, Index count);

}  // namespace diffode::data

#endif  // DIFFODE_DATA_SEQUENCE_BATCH_H_
