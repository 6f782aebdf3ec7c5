// Additional DIFFODE-core coverage: consistency-term training effect,
// backward-time queries, HiPPO timescale stability guard, and multi-head
// inversion paths under each p_t strategy.

#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.h"
#include "core/diffode_model.h"
#include "nn/optimizer.h"
#include "tensor/random.h"

namespace diffode::core {
namespace {

data::IrregularSeries MakeSeries(Index n, Index f, std::uint64_t seed) {
  Rng rng(seed);
  data::IrregularSeries s;
  s.values = Tensor(Shape{n, f});
  s.mask = Tensor::Ones(Shape{n, f});
  Scalar t = 0.0;
  for (Index i = 0; i < n; ++i) {
    t += rng.Uniform(0.3, 1.0);
    s.times.push_back(t);
    for (Index j = 0; j < f; ++j) s.values.at(i, j) = std::sin(t + j);
  }
  s.label = 0;
  return s;
}

DiffOdeConfig FastConfig(Index f) {
  DiffOdeConfig config;
  config.input_dim = f;
  config.latent_dim = 8;
  config.hippo_dim = 6;
  config.info_dim = 6;
  config.mlp_hidden = 12;
  config.step = 1.0;
  return config;
}

TEST(CoreExtraTest, ConsistencyTrainingShrinksAnchorGap) {
  // Minimizing only the consistency term must reduce it: the dynamics
  // learn to track the attention-defined DHS.
  DiffOdeConfig config = FastConfig(1);
  config.consistency_weight = 1.0;
  DiffOde model(config);
  data::IrregularSeries s = MakeSeries(6, 1, 1);
  nn::Adam opt(model.Params(), 0.02);
  Scalar first = 0.0, last = 0.0;
  for (int step = 0; step < 20; ++step) {
    model.ClassifyLogits(s);
    ag::Var aux = model.TakeAuxiliaryLoss();
    ASSERT_TRUE(aux.defined());
    last = aux.value().item();
    if (step == 0) first = last;
    aux.Backward();
    opt.StepAndZero();
  }
  EXPECT_LT(last, first);
}

TEST(CoreExtraTest, QueriesBeforeFirstObservationIntegrateBackward) {
  DiffOde model(FastConfig(2));
  data::IrregularSeries s = MakeSeries(6, 2, 2);
  // Three queries straddling the context start; all must be finite and the
  // pre-context one distinct from the first-observation state.
  const Scalar t0 = s.times.front();
  auto preds = model.PredictAt(s, {t0 - 1.0, t0, t0 + 0.5});
  for (const auto& p : preds) EXPECT_TRUE(p.value().AllFinite());
  EXPECT_GT((preds[0].value() - preds[1].value()).MaxAbs(), 0.0);
}

TEST(CoreExtraTest, DuplicateQueryTimesShareStates) {
  DiffOde model(FastConfig(1));
  data::IrregularSeries s = MakeSeries(5, 1, 3);
  auto preds = model.PredictAt(s, {s.times[2], s.times[2], s.times[2]});
  ASSERT_EQ(preds.size(), 3u);
  EXPECT_EQ((preds[0].value() - preds[1].value()).MaxAbs(), 0.0);
  EXPECT_EQ((preds[1].value() - preds[2].value()).MaxAbs(), 0.0);
}

TEST(CoreExtraTest, StiffHippoTimescaleGuardKeepsStatesFinite) {
  // Even with a deliberately stiff timescale the model must not NaN on a
  // short window (the guard only tunes accuracy/stability trade-off).
  DiffOdeConfig config = FastConfig(1);
  config.hippo_timescale = 24.0;  // very slow memory
  DiffOde slow(config);
  data::IrregularSeries s = MakeSeries(6, 1, 4);
  EXPECT_TRUE(slow.ClassifyLogits(s).value().AllFinite());
  config.hippo_timescale = 0.0;  // auto
  DiffOde autoscaled(config);
  EXPECT_TRUE(autoscaled.ClassifyLogits(s).value().AllFinite());
}

TEST(CoreExtraTest, MultiHeadWithEachStrategy) {
  data::IrregularSeries s = MakeSeries(7, 2, 5);
  for (auto strategy :
       {sparsity::PtStrategy::kMaxHoyer, sparsity::PtStrategy::kMinNorm,
        sparsity::PtStrategy::kAdaH}) {
    DiffOdeConfig config = FastConfig(2);
    config.num_heads = 2;
    config.pt_strategy = strategy;
    DiffOde model(config);
    auto preds = model.PredictAt(s, {s.times[3], s.times.back() + 0.5});
    for (const auto& p : preds)
      EXPECT_TRUE(p.value().AllFinite()) << static_cast<int>(strategy);
  }
}

TEST(CoreExtraTest, GradientsReachEveryParameter) {
  DiffOdeConfig config = FastConfig(1);
  config.pt_strategy = sparsity::PtStrategy::kAdaH;  // exercises h_ada head
  DiffOde model(config);
  data::IrregularSeries s = MakeSeries(6, 1, 6);
  // Combined classification + regression losses touch both heads.
  ag::Var loss = ag::SoftmaxCrossEntropy(model.ClassifyLogits(s), {0});
  ag::Var aux = model.TakeAuxiliaryLoss();
  if (aux.defined()) loss = ag::Add(loss, aux);
  auto preds = model.PredictAt(s, {s.times[1], s.times[4]});
  loss = ag::Add(loss, ag::Mean(ag::Square(ag::ConcatRows(preds))));
  loss.Backward();
  Index with_grad = 0, total = 0;
  for (auto& p : model.Params()) {
    ++total;
    if (p.grad().MaxAbs() > 0.0) ++with_grad;
  }
  // Every parameter except (possibly) dead-ReLU corners must receive
  // gradient; allow a small slack for the unused-in-this-pass heads.
  EXPECT_GE(with_grad, total - 2);
}

TEST(CoreExtraTest, LatentZShapeAndDeterminism) {
  DiffOde model(FastConfig(2));
  for (Index n : {4, 6, 9, 15}) {
    data::IrregularSeries s = MakeSeries(n, 2, 8);
    Tensor z1 = model.LatentZ(s);
    Tensor z2 = model.LatentZ(s);
    EXPECT_EQ(z1.rows(), n);
    EXPECT_EQ(z1.cols(), 8);
    EXPECT_EQ((z1 - z2).MaxAbs(), 0.0);
  }
}

TEST(CoreExtraTest, TwoObservationMinimumContext) {
  DiffOde model(FastConfig(1));
  data::IrregularSeries s = MakeSeries(2, 1, 9);
  EXPECT_TRUE(model.ClassifyLogits(s).value().AllFinite());
  auto preds = model.PredictAt(s, {0.5 * (s.times[0] + s.times[1])});
  EXPECT_TRUE(preds[0].value().AllFinite());
}

}  // namespace
}  // namespace diffode::core
