#ifndef DIFFODE_CORE_BATCHED_MODEL_H_
#define DIFFODE_CORE_BATCHED_MODEL_H_

#include <vector>

#include "core/sequence_model.h"
#include "data/sequence_batch.h"

namespace diffode::core {

// Lockstep execution interface: B sequences advance together so the model's
// hot matvecs run at GEMM shape m = B instead of m = 1 (docs/performance.md,
// "Execution batching"). Implemented natively by DiffOde only; every other
// model is served through BatchedDispatch's per-sequence fallback loop.
//
// Both methods are serving/eval paths: they open their own ag::NoGradScope,
// never build tape, and never accumulate auxiliary losses. Contract with the
// per-sequence path: bitwise at B = 1 and within 1e-10 relative at any B
// (tests/batched_equiv_test.cc).
class BatchedSequenceModel {
 public:
  virtual ~BatchedSequenceModel() = default;

  // B x num_classes logits, row r for batch.series[r].
  virtual Tensor ClassifyLogitsBatched(const data::SequenceBatch& batch) = 0;

  // out[r][k] is the 1 x f prediction for batch.series[r] at times[r][k].
  virtual std::vector<std::vector<Tensor>> PredictAtBatched(
      const data::SequenceBatch& batch,
      const std::vector<std::vector<Scalar>>& times) = 0;
};

// Routes batched calls to the model's native lockstep engine when it has
// one, else loops the per-sequence path under one NoGradScope. Non-owning.
class BatchedDispatch {
 public:
  explicit BatchedDispatch(SequenceModel* model);

  // True when the model integrates the batch in lockstep (native engine).
  bool native() const { return native_ != nullptr; }

  Tensor ClassifyLogitsBatched(const data::SequenceBatch& batch);
  std::vector<std::vector<Tensor>> PredictAtBatched(
      const data::SequenceBatch& batch,
      const std::vector<std::vector<Scalar>>& times);

 private:
  SequenceModel* model_;
  BatchedSequenceModel* native_;
};

}  // namespace diffode::core

#endif  // DIFFODE_CORE_BATCHED_MODEL_H_
