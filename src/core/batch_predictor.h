#ifndef DIFFODE_CORE_BATCH_PREDICTOR_H_
#define DIFFODE_CORE_BATCH_PREDICTOR_H_

#include <unordered_map>
#include <vector>

#include "core/batched_model.h"

namespace diffode::core {

// Micro-batched serving front-end (docs/performance.md, "Execution
// batching"): collects up to max_batch requests, then serves them all in
// one lockstep NoGradScope forward through BatchedDispatch. Requests with
// query times are regression requests (PredictAtBatched); requests without
// are classification requests (ClassifyLogitsBatched). The two kinds are
// flushed as separate sequence batches.
//
// Usage: Enqueue() returns a request id; call Flush() (or let the queue
// auto-flush at max_batch pending requests), then read result(id) once.
// Reading a result releases it, so a long-lived predictor holds only the
// results not yet read. Enqueued series must stay alive until the flush.
class BatchPredictor {
 public:
  struct Result {
    Tensor logits;                    // 1 x C (classification requests)
    std::vector<Tensor> predictions;  // one 1 x f row per query time
  };

  BatchPredictor(SequenceModel* model, Index max_batch);

  // Queues a request and returns its id; flushes automatically once
  // max_batch requests are pending.
  Index Enqueue(const data::IrregularSeries& series,
                std::vector<Scalar> times = {});

  // Serves every pending request in one batched forward per request kind.
  void Flush();

  // Hands over the result of a request id and frees its slot. Its flush must
  // have happened, and each id is read once.
  Result result(Index id);

  Index pending() const { return static_cast<Index>(pending_.size()); }
  Index max_batch() const { return max_batch_; }
  // True when the model integrates batches in lockstep (native engine).
  bool native() const { return dispatch_.native(); }

 private:
  struct Pending {
    Index id;
    const data::IrregularSeries* series;
    std::vector<Scalar> times;
  };

  BatchedDispatch dispatch_;
  Index max_batch_;
  std::vector<Pending> pending_;
  Index next_id_ = 0;
  // Flushed results not yet read, by request id.
  std::unordered_map<Index, Result> results_;
};

}  // namespace diffode::core

#endif  // DIFFODE_CORE_BATCH_PREDICTOR_H_
