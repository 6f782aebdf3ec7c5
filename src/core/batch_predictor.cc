#include "core/batch_predictor.h"

#include <utility>

namespace diffode::core {

BatchPredictor::BatchPredictor(SequenceModel* model, Index max_batch)
    : dispatch_(model), max_batch_(max_batch) {
  DIFFODE_CHECK_GT(max_batch_, 0);
}

Index BatchPredictor::Enqueue(const data::IrregularSeries& series,
                              std::vector<Scalar> times) {
  const Index id = next_id_++;
  pending_.push_back(Pending{id, &series, std::move(times)});
  if (static_cast<Index>(pending_.size()) >= max_batch_) Flush();
  return id;
}

void BatchPredictor::Flush() {
  if (pending_.empty()) return;
  std::vector<const Pending*> cls;
  std::vector<const Pending*> reg;
  for (const Pending& p : pending_)
    (p.times.empty() ? cls : reg).push_back(&p);
  if (!cls.empty()) {
    std::vector<const data::IrregularSeries*> series;
    series.reserve(cls.size());
    for (const Pending* p : cls) series.push_back(p->series);
    const data::SequenceBatch batch = data::MakeSequenceBatch(series);
    const Tensor logits = dispatch_.ClassifyLogitsBatched(batch);
    for (std::size_t i = 0; i < cls.size(); ++i)
      results_[cls[i]->id].logits = logits.Row(static_cast<Index>(i));
  }
  if (!reg.empty()) {
    std::vector<const data::IrregularSeries*> series;
    std::vector<std::vector<Scalar>> times;
    series.reserve(reg.size());
    times.reserve(reg.size());
    for (const Pending* p : reg) {
      series.push_back(p->series);
      times.push_back(p->times);
    }
    const data::SequenceBatch batch = data::MakeSequenceBatch(series);
    std::vector<std::vector<Tensor>> preds =
        dispatch_.PredictAtBatched(batch, times);
    for (std::size_t i = 0; i < reg.size(); ++i)
      results_[reg[i]->id].predictions = std::move(preds[i]);
  }
  pending_.clear();
}

BatchPredictor::Result BatchPredictor::result(Index id) {
  DIFFODE_CHECK_GE(id, 0);
  DIFFODE_CHECK_LT(id, next_id_);
  auto it = results_.find(id);
  if (it == results_.end()) {
    for (const Pending& p : pending_)
      DIFFODE_CHECK_MSG(p.id != id, "BatchPredictor::result before its Flush");
    DIFFODE_CHECK_MSG(false, "BatchPredictor::result read twice: each result "
                             "is released when it is read");
  }
  Result out = std::move(it->second);
  results_.erase(it);
  return out;
}

}  // namespace diffode::core
