// Lockstep batched execution (core/batched_model.h) vs the per-sequence
// path: random irregular grids, B in {1, 3, 8}, every supported kernel
// backend, 1 and 4 threads. DIFFODE is the only model with a native
// lockstep engine (diffode_lockstep.cc). Its recoveries and derivative are
// the kernels the per-sequence tape ops call, so at B = 1 it must match the
// per-sequence path bitwise; at B > 1, where the shared MLPs run at GEMM
// shape m = B, within 1e-10 relative. Every other model is served by
// BatchedDispatch's per-sequence loop, bitwise at any B. Engine outputs are
// bitwise identical at 1 and 4 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "baselines/zoo.h"
#include "core/batch_predictor.h"
#include "core/batched_model.h"
#include "core/diffode_model.h"
#include "core/parallel.h"
#include "data/generators.h"
#include "ode/diff_integrator.h"
#include "data/sequence_batch.h"
#include "tensor/random.h"
#include "tensor/simd.h"

namespace diffode {
namespace {

struct IsaGuard {
  explicit IsaGuard(simd::Isa isa) : prev(simd::ActiveIsa()) {
    EXPECT_TRUE(simd::SetActiveIsa(isa));
  }
  ~IsaGuard() { simd::SetActiveIsa(prev); }
  simd::Isa prev;
};

struct ThreadCountGuard {
  explicit ThreadCountGuard(int n) { parallel::ThreadPool::SetNumThreads(n); }
  ~ThreadCountGuard() { parallel::ThreadPool::SetNumThreads(0); }
};

std::vector<simd::Isa> SupportedIsas() {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::IsaSupported(simd::Isa::kAvx2)) isas.push_back(simd::Isa::kAvx2);
  if (simd::IsaSupported(simd::Isa::kAvx512))
    isas.push_back(simd::Isa::kAvx512);
  return isas;
}

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_TRUE(a.shape() == b.shape()) << what;
  for (Index i = 0; i < a.numel(); ++i) {
    const Scalar av = a[i], bv = b[i];
    std::uint64_t ia, ib;
    std::memcpy(&ia, &av, sizeof(ia));
    std::memcpy(&ib, &bv, sizeof(ib));
    EXPECT_EQ(ia, ib) << what << " i=" << i << " a=" << av << " b=" << bv;
  }
}

// Batched vs per-sequence bound at B > 1.
constexpr Scalar kBatchedBound = 1e-10;

// |a - b| <= bound * max(1, |b|) per element.
void ExpectClose(const Tensor& a, const Tensor& b, const char* what,
                 Scalar bound = kBatchedBound) {
  ASSERT_TRUE(a.shape() == b.shape()) << what;
  for (Index i = 0; i < a.numel(); ++i) {
    const Scalar tol = bound * std::max(1.0, std::fabs(b[i]));
    EXPECT_NEAR(a[i], b[i], tol) << what << " i=" << i;
  }
}

// Random irregular series: random length, random gaps, partially observed
// channels (every row keeps at least one observed channel so the encoding
// stays informative, though nothing in the batched path requires that).
data::IrregularSeries MakeSeries(std::uint64_t seed, Index features = 2) {
  Rng rng(seed);
  data::IrregularSeries s;
  const Index n = 6 + static_cast<Index>(rng.Uniform(0.0, 6.0));
  s.values = Tensor(Shape{n, features});
  s.mask = Tensor(Shape{n, features});
  Scalar t = rng.Uniform(0.0, 0.3);
  for (Index i = 0; i < n; ++i) {
    t += rng.Uniform(0.1, 0.9);
    s.times.push_back(t);
    Index observed = 0;
    for (Index j = 0; j < features; ++j) {
      if (rng.Uniform(0.0, 1.0) < 0.75) {
        s.mask.at(i, j) = 1.0;
        ++observed;
      }
      s.values.at(i, j) =
          std::sin(t + static_cast<Scalar>(j)) + rng.Normal(0.0, 0.1);
    }
    if (observed == 0) s.mask.at(i, i % features) = 1.0;
  }
  s.label = static_cast<Index>(seed % 2);
  return s;
}

std::vector<data::IrregularSeries> MakeBatchSeries(Index b,
                                                   std::uint64_t seed0) {
  std::vector<data::IrregularSeries> out;
  out.reserve(static_cast<std::size_t>(b));
  for (Index r = 0; r < b; ++r)
    out.push_back(MakeSeries(seed0 + static_cast<std::uint64_t>(r)));
  return out;
}

// Query times per sequence: before the context window (backward chain),
// inside it, past its end, plus an unsorted duplicate.
std::vector<std::vector<Scalar>> MakeQueryTimes(
    const std::vector<data::IrregularSeries>& series) {
  std::vector<std::vector<Scalar>> times;
  times.reserve(series.size());
  for (const data::IrregularSeries& s : series) {
    const Scalar lo = s.times.front(), hi = s.times.back();
    times.push_back({hi + 0.7, lo - 0.4, 0.5 * (lo + hi), lo - 0.4});
  }
  return times;
}

core::DiffOdeConfig SmallConfig() {
  core::DiffOdeConfig config;
  config.input_dim = 2;
  config.latent_dim = 8;
  config.hippo_dim = 6;
  config.info_dim = 6;
  config.mlp_hidden = 12;
  config.num_classes = 3;
  config.step = 0.5;
  return config;
}

baselines::BaselineConfig SmallBaselineConfig() {
  baselines::BaselineConfig config;
  config.input_dim = 2;
  config.hidden_dim = 10;
  config.mlp_hidden = 12;
  config.num_classes = 3;
  config.step = 0.5;
  return config;
}

// Compares the batched forwards of `model` against its per-sequence path on
// a B-sequence batch: bitwise at B = 1, within kBatchedBound at B > 1.
void CheckModel(core::SequenceModel* model, Index b, std::uint64_t seed,
                bool expect_native) {
  const std::vector<data::IrregularSeries> series = MakeBatchSeries(b, seed);
  std::vector<const data::IrregularSeries*> ptrs;
  for (const auto& s : series) ptrs.push_back(&s);
  const data::SequenceBatch batch = data::MakeSequenceBatch(ptrs);
  const std::vector<std::vector<Scalar>> times = MakeQueryTimes(series);

  core::BatchedDispatch dispatch(model);
  EXPECT_EQ(dispatch.native(), expect_native);
  const Tensor logits = dispatch.ClassifyLogitsBatched(batch);
  const std::vector<std::vector<Tensor>> preds =
      dispatch.PredictAtBatched(batch, times);

  ag::NoGradScope no_grad;
  for (Index r = 0; r < b; ++r) {
    const data::IrregularSeries& s = series[static_cast<std::size_t>(r)];
    const Tensor ref_logits = model->ClassifyLogits(s).value();
    (void)model->TakeAuxiliaryLoss();
    if (b == 1) {
      ExpectBitwiseEqual(logits.Row(r), ref_logits, "logits");
    } else {
      ExpectClose(logits.Row(r), ref_logits, "logits");
    }
    const std::vector<ag::Var> ref_preds =
        model->PredictAt(s, times[static_cast<std::size_t>(r)]);
    (void)model->TakeAuxiliaryLoss();
    ASSERT_EQ(preds[static_cast<std::size_t>(r)].size(), ref_preds.size());
    for (std::size_t k = 0; k < ref_preds.size(); ++k) {
      if (b == 1) {
        ExpectBitwiseEqual(preds[static_cast<std::size_t>(r)][k],
                           ref_preds[k].value(), "pred");
      } else {
        ExpectClose(preds[static_cast<std::size_t>(r)][k],
                    ref_preds[k].value(), "pred");
      }
    }
  }
}

TEST(SequenceBatchTest, ViewsTheSeriesAndCountsTheirUnionTimes) {
  const std::vector<data::IrregularSeries> series = MakeBatchSeries(5, 11);
  std::vector<const data::IrregularSeries*> ptrs;
  for (const auto& s : series) ptrs.push_back(&s);
  const data::SequenceBatch batch = data::MakeSequenceBatch(ptrs);
  ASSERT_EQ(batch.batch, 5);
  EXPECT_EQ(batch.features, 2);
  EXPECT_EQ(batch.series, ptrs);
  Index max_len = 0;
  std::vector<Scalar> all_times;
  for (Index r = 0; r < batch.batch; ++r) {
    const data::IrregularSeries& s = *ptrs[static_cast<std::size_t>(r)];
    EXPECT_EQ(batch.lengths[static_cast<std::size_t>(r)], s.length());
    max_len = std::max(max_len, s.length());
    all_times.insert(all_times.end(), s.times.begin(), s.times.end());
  }
  EXPECT_EQ(batch.max_len, max_len);
  std::sort(all_times.begin(), all_times.end());
  all_times.erase(std::unique(all_times.begin(), all_times.end()),
                  all_times.end());
  EXPECT_EQ(batch.union_size(), static_cast<Index>(all_times.size()));
  // Two rows over one series share every time point.
  const data::SequenceBatch twice =
      data::MakeSequenceBatch({ptrs[0], ptrs[0]});
  EXPECT_EQ(twice.union_size(), ptrs[0]->length());
}

TEST(BatchedEquivTest, DiffOdeMatchesPerSequence) {
  // Every integration scheme the engine replays: midpoint (the default),
  // Euler and RK4.
  for (simd::Isa isa : SupportedIsas()) {
    IsaGuard ig(isa);
    for (int threads : {1, 4}) {
      ThreadCountGuard tg(threads);
      for (ode::DiffMethod method :
           {ode::DiffMethod::kMidpoint, ode::DiffMethod::kEuler,
            ode::DiffMethod::kRk4}) {
        core::DiffOde model(SmallConfig());
        model.set_diff_method(method);
        for (Index b : {1, 3, 8}) CheckModel(&model, b, 100 + b, true);
      }
    }
  }
}

struct EngineOutputs {
  Tensor logits;
  std::vector<std::vector<Tensor>> preds;
};

EngineOutputs RunEngine(core::DiffOde* model, int threads) {
  ThreadCountGuard tg(threads);
  const std::vector<data::IrregularSeries> series = MakeBatchSeries(40, 60);
  std::vector<const data::IrregularSeries*> ptrs;
  for (const auto& s : series) ptrs.push_back(&s);
  const data::SequenceBatch batch = data::MakeSequenceBatch(ptrs);
  EngineOutputs out;
  out.logits = model->ClassifyLogitsBatched(batch);
  out.preds = model->PredictAtBatched(batch, MakeQueryTimes(series));
  return out;
}

TEST(BatchedEquivTest, DiffOdeEngineIsBitwiseAcrossThreadCounts) {
  // B = 40 spans several recovery chunks, so at 4 threads the per-row passes
  // really fan out; both precisions must give the same bits as 1 thread.
  for (Precision precision : {Precision::kF64, Precision::kF32}) {
    core::DiffOde model(SmallConfig());
    model.Freeze(precision);
    const EngineOutputs one = RunEngine(&model, 1);
    const EngineOutputs four = RunEngine(&model, 4);
    ExpectBitwiseEqual(one.logits, four.logits, "logits");
    ASSERT_EQ(one.preds.size(), four.preds.size());
    for (std::size_t r = 0; r < one.preds.size(); ++r) {
      ASSERT_EQ(one.preds[r].size(), four.preds[r].size());
      for (std::size_t k = 0; k < one.preds[r].size(); ++k)
        ExpectBitwiseEqual(one.preds[r][k], four.preds[r][k], "pred");
    }
  }
}

TEST(BatchedEquivTest, DiffOdeVariantsMatchPerSequence) {
  // Strategy / head / encoder / attention variants, one pass each at B = 3
  // and B = 1 on the active backend.
  std::vector<core::DiffOdeConfig> configs;
  {
    core::DiffOdeConfig c = SmallConfig();
    c.pt_strategy = sparsity::PtStrategy::kMinNorm;
    configs.push_back(c);
  }
  {
    core::DiffOdeConfig c = SmallConfig();
    c.pt_strategy = sparsity::PtStrategy::kAdaH;
    configs.push_back(c);
  }
  {
    core::DiffOdeConfig c = SmallConfig();
    c.head = core::OutputHead::kDirect;
    configs.push_back(c);
  }
  {
    core::DiffOdeConfig c = SmallConfig();
    c.use_attention = false;
    configs.push_back(c);
  }
  {
    core::DiffOdeConfig c = SmallConfig();
    c.encoder = core::EncoderType::kMlp;
    configs.push_back(c);
  }
  {
    core::DiffOdeConfig c = SmallConfig();
    c.num_heads = 2;
    configs.push_back(c);
  }
  std::uint64_t seed = 300;
  for (const core::DiffOdeConfig& config : configs) {
    core::DiffOde model(config);
    CheckModel(&model, 1, seed += 17, true);
    CheckModel(&model, 3, seed += 17, true);
  }
}

TEST(BatchedEquivTest, DiffOdeRowWithoutQueriesGetsNoPredictions) {
  // No query times give no predictions, on the tape path (grad on and off)
  // and in the engine. In a batch of 3 whose middle row asks for nothing,
  // the other rows match their B = 1 runs bitwise.
  core::DiffOde model(SmallConfig());
  const std::vector<data::IrregularSeries> series = MakeBatchSeries(3, 500);
  EXPECT_TRUE(model.PredictAt(series[0], {}).empty());
  (void)model.TakeAuxiliaryLoss();
  {
    ag::NoGradScope no_grad;
    EXPECT_TRUE(model.PredictAt(series[0], {}).empty());
  }
  const std::vector<std::vector<Tensor>> alone = model.PredictAtBatched(
      data::MakeSequenceBatch({&series[0]}), {std::vector<Scalar>{}});
  ASSERT_EQ(alone.size(), 1u);
  EXPECT_TRUE(alone[0].empty());

  std::vector<std::vector<Scalar>> times = MakeQueryTimes(series);
  times[1].clear();
  const std::vector<std::vector<Tensor>> preds = model.PredictAtBatched(
      data::MakeSequenceBatch({&series[0], &series[1], &series[2]}), times);
  ASSERT_EQ(preds.size(), 3u);
  EXPECT_TRUE(preds[1].empty());
  for (std::size_t r : {0u, 2u}) {
    const std::vector<std::vector<Tensor>> single =
        model.PredictAtBatched(data::MakeSequenceBatch({&series[r]}),
                               {times[r]});
    ASSERT_EQ(preds[r].size(), single[0].size()) << r;
    for (std::size_t k = 0; k < single[0].size(); ++k)
      ExpectBitwiseEqual(preds[r][k], single[0][k], "pred");
  }
}

TEST(BatchedEquivTest, FallbackLoopServesNonLockstepModels) {
  // The baselines have no native lockstep engine; BatchedDispatch must serve
  // them through the per-sequence loop with identical (bitwise) results.
  for (const char* name : {"GRU", "GRU-D", "ODE-RNN"}) {
    auto model = baselines::MakeBaseline(name, SmallBaselineConfig());
    for (Index b : {1, 3}) {
      const std::vector<data::IrregularSeries> series =
          MakeBatchSeries(b, 900);
      std::vector<const data::IrregularSeries*> ptrs;
      for (const auto& s : series) ptrs.push_back(&s);
      const data::SequenceBatch batch = data::MakeSequenceBatch(ptrs);
      core::BatchedDispatch dispatch(model.get());
      EXPECT_FALSE(dispatch.native()) << name;
      const Tensor logits = dispatch.ClassifyLogitsBatched(batch);
      ag::NoGradScope no_grad;
      for (Index r = 0; r < b; ++r)
        ExpectBitwiseEqual(
            logits.Row(r),
            model->ClassifyLogits(*ptrs[static_cast<std::size_t>(r)]).value(),
            name);
    }
  }
}

TEST(BatchPredictorTest, MicroBatchesMixedRequests) {
  core::DiffOde model(SmallConfig());
  const std::vector<data::IrregularSeries> series = MakeBatchSeries(6, 40);
  core::BatchPredictor predictor(&model, /*max_batch=*/4);
  EXPECT_TRUE(predictor.native());
  std::vector<Index> cls_ids, reg_ids;
  std::vector<std::vector<Scalar>> reg_times;
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (i % 2 == 0) {
      cls_ids.push_back(predictor.Enqueue(series[i]));
    } else {
      std::vector<Scalar> times = {series[i].times.back() + 0.5,
                                   series[i].times.front() - 0.25};
      reg_ids.push_back(predictor.Enqueue(series[i], times));
      reg_times.push_back(std::move(times));
    }
  }
  predictor.Flush();
  EXPECT_EQ(predictor.pending(), 0);
  ag::NoGradScope no_grad;
  for (std::size_t i = 0; i < cls_ids.size(); ++i) {
    const Tensor ref = model.ClassifyLogits(series[2 * i]).value();
    ExpectClose(predictor.result(cls_ids[i]).logits, ref, "served logits");
  }
  for (std::size_t i = 0; i < reg_ids.size(); ++i) {
    const std::vector<ag::Var> ref =
        model.PredictAt(series[2 * i + 1], reg_times[i]);
    const std::vector<Tensor> got = predictor.result(reg_ids[i]).predictions;
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k)
      ExpectClose(got[k], ref[k].value(), "served prediction");
  }
}

TEST(BatchPredictorTest, ResultIsReleasedWhenRead) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::DiffOde model(SmallConfig());
  const std::vector<data::IrregularSeries> series = MakeBatchSeries(2, 60);
  core::BatchPredictor predictor(&model, /*max_batch=*/4);
  const Index first = predictor.Enqueue(series[0], {series[0].times.back()});
  const Index second = predictor.Enqueue(series[1]);
  EXPECT_DEATH((void)predictor.result(first), "before its Flush");
  predictor.Flush();
  const core::BatchPredictor::Result got = predictor.result(first);
  ASSERT_EQ(got.predictions.size(), 1u);
  EXPECT_EQ(predictor.result(second).logits.rows(), 1);
  EXPECT_DEATH((void)predictor.result(first), "read twice");
  EXPECT_DEATH((void)predictor.result(second), "read twice");
}

}  // namespace
}  // namespace diffode
