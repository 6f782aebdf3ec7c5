#include "baselines/zoo.h"

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "baselines/nrde.h"
#include "nn/optimizer.h"
#include "tensor/random.h"

namespace diffode::baselines {
namespace {

data::IrregularSeries MakeSeries(Index n, Index f, std::uint64_t seed,
                                 Scalar level = 0.0) {
  Rng rng(seed);
  data::IrregularSeries s;
  s.values = Tensor(Shape{n, f});
  s.mask = Tensor::Ones(Shape{n, f});
  Scalar t = 0.0;
  for (Index i = 0; i < n; ++i) {
    t += rng.Uniform(0.2, 1.0);
    s.times.push_back(t);
    for (Index j = 0; j < f; ++j)
      s.values.at(i, j) = level + 0.3 * std::sin(t + j);
  }
  s.label = level > 0 ? 1 : 0;
  return s;
}

BaselineConfig FastConfig(Index f) {
  BaselineConfig config;
  config.input_dim = f;
  config.hidden_dim = 8;
  config.mlp_hidden = 12;
  config.hippo_dim = 6;
  config.num_classes = 2;
  config.step = 1.0;
  return config;
}

class BaselineZooTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BaselineZooTest, ClassifyShapeAndFiniteness) {
  auto model = MakeBaseline(GetParam(), FastConfig(2));
  data::IrregularSeries s = MakeSeries(6, 2, 1);
  ag::Var logits = model->ClassifyLogits(s);
  EXPECT_EQ(logits.rows(), 1);
  EXPECT_EQ(logits.cols(), 2);
  EXPECT_TRUE(logits.value().AllFinite());
}

TEST_P(BaselineZooTest, PredictShapesIncludingExtrapolation) {
  auto model = MakeBaseline(GetParam(), FastConfig(2));
  data::IrregularSeries s = MakeSeries(7, 2, 2);
  std::vector<Scalar> queries = {s.times[2], s.times.back() + 0.7};
  auto preds = model->PredictAt(s, queries);
  ASSERT_EQ(preds.size(), 2u);
  for (const auto& p : preds) {
    EXPECT_EQ(p.rows(), 1);
    EXPECT_EQ(p.cols(), 2);
    EXPECT_TRUE(p.value().AllFinite());
  }
}

TEST_P(BaselineZooTest, HasTrainableParametersExceptHippoObs) {
  auto model = MakeBaseline(GetParam(), FastConfig(2));
  EXPECT_GT(model->NumParams(), 0);
}

TEST_P(BaselineZooTest, ClassificationGradientStepReducesLoss) {
  auto model = MakeBaseline(GetParam(), FastConfig(1));
  data::IrregularSeries pos = MakeSeries(5, 1, 3, 1.0);
  data::IrregularSeries neg = MakeSeries(5, 1, 4, -1.0);
  nn::Adam opt(model->Params(), 0.02);
  Scalar first = 0.0, last = 0.0;
  for (int step = 0; step < 25; ++step) {
    ag::Var loss = ag::Add(
        ag::SoftmaxCrossEntropy(model->ClassifyLogits(pos), {1}),
        ag::SoftmaxCrossEntropy(model->ClassifyLogits(neg), {0}));
    if (step == 0) first = loss.value().item();
    last = loss.value().item();
    loss.Backward();
    opt.StepAndZero();
  }
  EXPECT_LT(last, first) << GetParam();
}

TEST_P(BaselineZooTest, SparseMaskHandled) {
  auto model = MakeBaseline(GetParam(), FastConfig(3));
  data::IrregularSeries s = MakeSeries(6, 3, 5);
  for (Index i = 0; i < 6; ++i)
    for (Index j = 0; j < 3; ++j) s.mask.at(i, j) = (i + j) % 2;
  EXPECT_TRUE(model->ClassifyLogits(s).value().AllFinite());
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineZooTest,
                         ::testing::ValuesIn(BaselineNames()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return n;
                         });

TEST(ZooTest, TwelveBaselines) {
  // The paper's Tables III-V compare DIFFODE against twelve baselines.
  EXPECT_EQ(BaselineNames().size(), 12u);
}

// ---------------------------------------------------------------------------
// NRDE log-signature unit checks.
// ---------------------------------------------------------------------------

TEST(LogSignatureTest, IncrementsMatchEndpoints) {
  Tensor path = Tensor::FromRows(3, 2, {0, 0, 1, 2, 3, 1});
  Tensor sig = NrdeBaseline::LogSignature2(path);
  EXPECT_DOUBLE_EQ(sig.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(sig.at(0, 1), 1.0);
}

TEST(LogSignatureTest, LevyAreaAntisymmetricUnderChannelSwap) {
  Rng rng(6);
  Tensor path = rng.NormalTensor(Shape{6, 2});
  Tensor sig = NrdeBaseline::LogSignature2(path);
  // Swap the two channels.
  Tensor swapped(path.shape());
  for (Index i = 0; i < 6; ++i) {
    swapped.at(i, 0) = path.at(i, 1);
    swapped.at(i, 1) = path.at(i, 0);
  }
  Tensor sig_swapped = NrdeBaseline::LogSignature2(swapped);
  EXPECT_NEAR(sig.at(0, 2), -sig_swapped.at(0, 2), 1e-12);
}

TEST(LogSignatureTest, StraightLineHasZeroArea) {
  // A straight-line path encloses no area.
  Tensor path(Shape{5, 2});
  for (Index i = 0; i < 5; ++i) {
    path.at(i, 0) = static_cast<Scalar>(i);
    path.at(i, 1) = 2.0 * static_cast<Scalar>(i);
  }
  Tensor sig = NrdeBaseline::LogSignature2(path);
  EXPECT_NEAR(sig.at(0, 2), 0.0, 1e-12);
}

TEST(LogSignatureTest, UnitSquareLoopArea) {
  // Closed unit square traversed counter-clockwise: increments 0, area 1.
  Tensor path = Tensor::FromRows(5, 2, {0, 0, 1, 0, 1, 1, 0, 1, 0, 0});
  Tensor sig = NrdeBaseline::LogSignature2(path);
  EXPECT_NEAR(sig.at(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(sig.at(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(sig.at(0, 2), 1.0, 1e-12);
}

}  // namespace
}  // namespace diffode::baselines
