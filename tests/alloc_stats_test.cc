#include "core/alloc_stats.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "autograd/arena.h"
#include "autograd/ops.h"
#include "core/diffode_model.h"
#include "core/parallel.h"
#include "data/generators.h"
#include "data/sequence_batch.h"
#include "nn/gru.h"
#include "tensor/buffer_pool.h"
#include "train/trainer.h"

namespace diffode {
namespace {

using core::AllocStats;
using tensor::BufferPool;

TEST(BufferPoolTest, BucketRounding) {
  EXPECT_EQ(BufferPool::BucketBytes(1), 64u);
  EXPECT_EQ(BufferPool::BucketBytes(64), 64u);
  EXPECT_EQ(BufferPool::BucketBytes(65), 128u);
  EXPECT_EQ(BufferPool::BucketBytes(1000), 1024u);
  EXPECT_EQ(BufferPool::BucketBytes(1 << 20), std::size_t{1} << 20);
}

TEST(BufferPoolTest, RecyclesWithinScope) {
  BufferPool::Scope scope;
  void* a = BufferPool::Allocate(256);
  BufferPool::Deallocate(a, 256);
  const AllocStats::Snapshot before = AllocStats::Read();
  void* b = BufferPool::Allocate(256);
  const AllocStats::Snapshot d =
      AllocStats::Delta(before, AllocStats::Read());
  EXPECT_EQ(b, a);  // served straight from the thread cache
  EXPECT_EQ(d.pool_hits, 1u);
  EXPECT_EQ(d.pool_misses, 0u);
  BufferPool::Deallocate(b, 256);
}

TEST(BufferPoolTest, ScopesAreReentrant) {
  EXPECT_FALSE(BufferPool::ScopeActive());
  {
    BufferPool::Scope outer;
    EXPECT_TRUE(BufferPool::ScopeActive());
    void* a = BufferPool::Allocate(128);
    {
      BufferPool::Scope inner;
      EXPECT_TRUE(BufferPool::ScopeActive());
      BufferPool::Deallocate(a, 128);
    }
    // The inner scope must not have flushed the cache: the block is still
    // available for recycling on this thread.
    const AllocStats::Snapshot before = AllocStats::Read();
    void* b = BufferPool::Allocate(128);
    EXPECT_EQ(AllocStats::Delta(before, AllocStats::Read()).pool_hits, 1u);
    BufferPool::Deallocate(b, 128);
  }
  EXPECT_FALSE(BufferPool::ScopeActive());
}

TEST(BufferPoolTest, OutsideScopeBypassesToHeap) {
  ASSERT_FALSE(BufferPool::ScopeActive());
  const AllocStats::Snapshot before = AllocStats::Read();
  void* p = BufferPool::Allocate(512);
  const AllocStats::Snapshot d =
      AllocStats::Delta(before, AllocStats::Read());
  EXPECT_GE(d.pool_bypass, 1u);
  EXPECT_EQ(d.pool_hits, 0u);
  BufferPool::Deallocate(p, 512);
}

TEST(TapeArenaTest, BumpAllocatesAndResetsWarm) {
  ag::TapeArena::Scope scope;
  ag::TapeArena* arena = ag::TapeArena::Active();
  ASSERT_NE(arena, nullptr);
  void* a = arena->Allocate(100, 16);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 16, 0u);
  void* b = arena->Allocate(100, 16);
  EXPECT_NE(a, b);
  EXPECT_GE(arena->BytesInUse(), 200u);
  arena->Reset();
  EXPECT_EQ(arena->BytesInUse(), 0u);
  // Blocks are retained: a warm arena hands back the same storage.
  EXPECT_EQ(arena->Allocate(100, 16), a);
  arena->Reset();
}

TEST(TapeArenaTest, DisabledMeansNoActiveArena) {
  ag::TapeArena::SetEnabled(false);
  {
    ag::TapeArena::Scope scope;
    EXPECT_EQ(ag::TapeArena::Active(), nullptr);
  }
  ag::TapeArena::SetEnabled(true);
  {
    ag::TapeArena::Scope scope;
    EXPECT_NE(ag::TapeArena::Active(), nullptr);
  }
}

TEST(VarGradTest, ZeroGradReusesTheGradBuffer) {
  ag::Var p = ag::Param(Tensor::Ones(Shape{3, 4}));
  ag::Var loss = ag::Sum(ag::Mul(p, p));
  loss.Backward();
  ASSERT_GT(p.grad().numel(), 0);
  const Scalar* buf = p.grad().values().data();
  p.ZeroGrad();
  EXPECT_EQ(p.grad().values().data(), buf);  // cleared in place
  for (Index i = 0; i < p.grad().numel(); ++i)
    EXPECT_EQ(p.grad().values()[static_cast<std::size_t>(i)], 0.0);
}

core::DiffOdeConfig TinyConfig() {
  core::DiffOdeConfig config;
  config.input_dim = 1;
  config.latent_dim = 8;
  config.hippo_dim = 6;
  config.info_dim = 6;
  config.mlp_hidden = 12;
  config.num_classes = 2;
  config.step = 1.0;
  return config;
}

data::Dataset TinyDataset() {
  data::SyntheticPeriodicConfig dconfig;
  dconfig.num_series = 12;
  dconfig.grid_points = 8;
  return data::MakeSyntheticPeriodic(dconfig);
}

train::TrainOptions TinyOptions(Index epochs) {
  train::TrainOptions options;
  options.epochs = epochs;
  options.batch_size = 16;  // >= train split: one batch per epoch
  options.lr = 1e-3;
  options.patience = 100;
  return options;
}

// The steady-state contract of the PR: once the pool and arena are warm,
// a training step allocates nothing from the heap for its intermediates.
TEST(AllocStatsTest, SteadyStateTrainingHasZeroPoolMisses) {
  const int prev_threads = parallel::ThreadPool::Get().num_threads();
  parallel::ThreadPool::SetNumThreads(1);
  data::Dataset ds = TinyDataset();
  core::DiffOde model(TinyConfig());
  // Warm-up: first epochs populate the depot and the arena blocks.
  (void)train::TrainClassifier(&model, ds, TinyOptions(2));
  const AllocStats::Snapshot before = AllocStats::Read();
  (void)train::TrainClassifier(&model, ds, TinyOptions(1));
  const AllocStats::Snapshot d =
      AllocStats::Delta(before, AllocStats::Read());
  EXPECT_EQ(d.pool_misses, 0u);
  EXPECT_EQ(d.heap_nodes, 0u);                // every tape node, and every
                                              // RHS node's record, in the arena
  EXPECT_GT(d.pool_hits + d.depot_hits, 0u);  // the pool actually served
  EXPECT_GT(d.arena_nodes, 0u);               // tapes came from the arena
  parallel::ThreadPool::SetNumThreads(prev_threads);
}

// A whole GRU recurrence is one tape node, whatever its length, and its
// saved gates are arena bytes, not heap nodes.
TEST(AllocStatsTest, GruScanIsOneArenaNode) {
  Rng rng(9);
  nn::GruCell cell(12, 16, rng);
  for (Index n : {5, 50}) {
    {
      ag::TapeArena::Scope arena_scope;
      const ag::Var x = ag::Constant(rng.NormalTensor(Shape{n, 12}));
      const ag::Var h0 = cell.InitialState(1);
      const AllocStats::Snapshot before = AllocStats::Read();
      const ag::Var states = cell.Scan(x, h0);
      const AllocStats::Snapshot d =
          AllocStats::Delta(before, AllocStats::Read());
      EXPECT_EQ(d.arena_nodes, 1u) << "n = " << n;
      EXPECT_EQ(d.heap_nodes, 0u) << "n = " << n;
      EXPECT_EQ(states.rows(), n);
    }
    ag::TapeArena::ThreadLocal().Reset();
  }
}

// One DIFFODE training shard on a fixed series, as the trainer runs it
// (arena and pool scopes, forward, loss, backward): every tape node and
// every fused node's record comes from the arena.
TEST(AllocStatsTest, DiffOdeTrainingShardHasNoHeapNodes) {
  data::Dataset ds = TinyDataset();
  core::DiffOde model(TinyConfig());
  const data::IrregularSeries& series = ds.train.front();
  const std::vector<Scalar> times = {series.times.front(),
                                     series.times.back()};
  AllocStats::Snapshot d;
  {
    ag::TapeArena::Scope arena_scope;
    tensor::BufferPool::Scope pool_scope;
    const AllocStats::Snapshot before = AllocStats::Read();
    {
      std::vector<ag::Var> preds = model.PredictAt(series, times);
      ag::Var loss = ag::Sum(ag::Square(ag::ConcatRows(preds)));
      const ag::Var aux = model.TakeAuxiliaryLoss();
      if (aux.defined()) loss = ag::Add(loss, aux);
      loss.Backward();
    }
    d = AllocStats::Delta(before, AllocStats::Read());
  }
  ag::TapeArena::ThreadLocal().Reset();
  EXPECT_EQ(d.heap_nodes, 0u);
  EXPECT_GT(d.arena_nodes, 0u);
}

struct TrainOutcome {
  std::vector<Scalar> losses;
  std::vector<Tensor> params;
};

TrainOutcome RunTinyTraining(bool fast_alloc, int threads) {
  parallel::ThreadPool::SetNumThreads(threads);
  ag::TapeArena::SetEnabled(fast_alloc);
  tensor::BufferPool::SetEnabled(fast_alloc);
  data::Dataset ds = TinyDataset();
  core::DiffOde model(TinyConfig());
  train::FitResult fit =
      train::TrainClassifier(&model, ds, TinyOptions(2));
  TrainOutcome out;
  out.losses = fit.train_losses;
  for (const auto& p : model.Params()) out.params.push_back(p.value());
  ag::TapeArena::SetEnabled(true);
  tensor::BufferPool::SetEnabled(true);
  return out;
}

void ExpectBitwiseEqual(const TrainOutcome& a, const TrainOutcome& b) {
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (std::size_t i = 0; i < a.losses.size(); ++i)
    EXPECT_EQ(a.losses[i], b.losses[i]);
  ASSERT_EQ(a.params.size(), b.params.size());
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    ASSERT_EQ(a.params[i].shape(), b.params[i].shape());
    for (Index k = 0; k < a.params[i].numel(); ++k)
      EXPECT_EQ(a.params[i].values()[static_cast<std::size_t>(k)],
                b.params[i].values()[static_cast<std::size_t>(k)]);
  }
}

// Arena + pool must change where bytes live, never what is computed: losses
// and weights are bitwise identical with the fast allocators on or off, at
// one thread and at four.
TEST(AllocStatsTest, ArenaAndPoolAreBitwiseEquivalent) {
  const int prev_threads = parallel::ThreadPool::Get().num_threads();
  const TrainOutcome fast1 = RunTinyTraining(/*fast_alloc=*/true, 1);
  const TrainOutcome slow1 = RunTinyTraining(/*fast_alloc=*/false, 1);
  const TrainOutcome fast4 = RunTinyTraining(/*fast_alloc=*/true, 4);
  const TrainOutcome slow4 = RunTinyTraining(/*fast_alloc=*/false, 4);
  ExpectBitwiseEqual(fast1, slow1);
  ExpectBitwiseEqual(fast1, fast4);
  ExpectBitwiseEqual(fast1, slow4);
  parallel::ThreadPool::SetNumThreads(prev_threads);
}

struct ServeOutcome {
  Tensor logits;
  std::vector<std::vector<Tensor>> preds;
  AllocStats::Snapshot warm;  // counters of the second (warm) flush
};

// Two engine flushes (classification + regression) of one batch on a model
// frozen at `precision`; the second one's counters are the warm ones.
ServeOutcome ServeTwice(Precision precision) {
  const data::Dataset ds = TinyDataset();
  std::vector<const data::IrregularSeries*> ptrs;
  std::vector<std::vector<Scalar>> times;
  for (const auto& s : ds.train) {
    ptrs.push_back(&s);
    times.push_back({s.times.front() - 0.2, s.times.back() + 0.5});
  }
  const data::SequenceBatch batch = data::MakeSequenceBatch(ptrs);
  core::DiffOde model(TinyConfig());
  model.Freeze(precision);
  ServeOutcome out;
  for (int pass = 0; pass < 2; ++pass) {
    const AllocStats::Snapshot before = AllocStats::Read();
    out.logits = model.ClassifyLogitsBatched(batch);
    out.preds = model.PredictAtBatched(batch, times);
    out.warm = AllocStats::Delta(before, AllocStats::Read());
  }
  return out;
}

// The serving contract: the lockstep engine opens its own pool scope, so a
// warm flush takes nothing from the heap outside the pool, at either
// precision. One pool thread keeps every allocation on the calling thread.
// The engine runs off autograd, its encode included: a flush (classification
// and regression) builds no Var at all.
TEST(AllocStatsTest, WarmEngineFlushHasZeroPoolBypass) {
  parallel::ThreadPool::SetNumThreads(1);
  for (Precision precision : {Precision::kF64, Precision::kF32}) {
    const ServeOutcome out = ServeTwice(precision);
    EXPECT_EQ(out.warm.pool_bypass, 0u) << PrecisionName(precision);
    EXPECT_GT(out.warm.pool_hits, 0u) << PrecisionName(precision);
    EXPECT_EQ(out.warm.value_only_vars, 0u) << PrecisionName(precision);
  }
  parallel::ThreadPool::SetNumThreads(0);
}

// The pool changes where engine buffers live, never the served numbers.
TEST(AllocStatsTest, EngineOutputsAreBitwiseWithPoolDisabled) {
  parallel::ThreadPool::SetNumThreads(1);
  for (Precision precision : {Precision::kF64, Precision::kF32}) {
    const ServeOutcome pooled = ServeTwice(precision);
    tensor::BufferPool::SetEnabled(false);
    const ServeOutcome heap = ServeTwice(precision);
    tensor::BufferPool::SetEnabled(true);
    ASSERT_TRUE(pooled.logits.shape() == heap.logits.shape());
    for (Index i = 0; i < pooled.logits.numel(); ++i)
      EXPECT_EQ(pooled.logits[i], heap.logits[i]);
    ASSERT_EQ(pooled.preds.size(), heap.preds.size());
    for (std::size_t r = 0; r < pooled.preds.size(); ++r)
      for (std::size_t k = 0; k < pooled.preds[r].size(); ++k)
        for (Index j = 0; j < pooled.preds[r][k].numel(); ++j)
          EXPECT_EQ(pooled.preds[r][k][j], heap.preds[r][k][j]);
  }
  parallel::ThreadPool::SetNumThreads(0);
}

}  // namespace
}  // namespace diffode
