#include "core/diffode_model.h"

#include <gtest/gtest.h>

#include <string>

#include "autograd/ops.h"
#include "gradcheck.h"
#include "nn/optimizer.h"
#include "tensor/random.h"

namespace diffode::core {
namespace {

data::IrregularSeries MakeSeries(Index n, Index f, std::uint64_t seed) {
  Rng rng(seed);
  data::IrregularSeries s;
  Scalar t = 0.0;
  s.values = Tensor(Shape{n, f});
  s.mask = Tensor::Ones(Shape{n, f});
  for (Index i = 0; i < n; ++i) {
    t += rng.Uniform(0.2, 1.0);
    s.times.push_back(t);
    for (Index j = 0; j < f; ++j)
      s.values.at(i, j) = std::sin(t + static_cast<Scalar>(j));
  }
  s.label = 1;
  return s;
}

DiffOdeConfig FastConfig(Index f) {
  DiffOdeConfig config;
  config.input_dim = f;
  config.latent_dim = 8;
  config.hippo_dim = 6;
  config.info_dim = 6;
  config.mlp_hidden = 12;
  config.num_classes = 2;
  config.step = 1.0;  // coarse integration keeps the tests fast
  return config;
}

TEST(DiffOdeModelTest, ClassificationLogitShape) {
  DiffOde model(FastConfig(2));
  data::IrregularSeries s = MakeSeries(6, 2, 1);
  ag::Var logits = model.ClassifyLogits(s);
  EXPECT_EQ(logits.rows(), 1);
  EXPECT_EQ(logits.cols(), 2);
  EXPECT_TRUE(logits.value().AllFinite());
}

TEST(DiffOdeModelTest, PredictShapesAndFiniteness) {
  DiffOde model(FastConfig(3));
  data::IrregularSeries s = MakeSeries(7, 3, 2);
  std::vector<Scalar> queries = {s.times[1], s.times.back() + 1.0,
                                 s.times[0] - 0.5};
  auto preds = model.PredictAt(s, queries);
  ASSERT_EQ(preds.size(), 3u);
  for (const auto& p : preds) {
    EXPECT_EQ(p.rows(), 1);
    EXPECT_EQ(p.cols(), 3);
    EXPECT_TRUE(p.value().AllFinite());
  }
}

TEST(DiffOdeModelTest, AllConfigVariantsRun) {
  data::IrregularSeries s = MakeSeries(6, 2, 3);
  for (EncoderType enc : {EncoderType::kGru, EncoderType::kMlp}) {
    for (OutputHead head : {OutputHead::kHippo, OutputHead::kDirect}) {
      for (bool attn : {true, false}) {
        DiffOdeConfig config = FastConfig(2);
        config.encoder = enc;
        config.head = head;
        config.use_attention = attn;
        DiffOde model(config);
        ag::Var logits = model.ClassifyLogits(s);
        EXPECT_TRUE(logits.value().AllFinite())
            << "enc=" << static_cast<int>(enc)
            << " head=" << static_cast<int>(head) << " attn=" << attn;
        auto preds = model.PredictAt(s, {s.times[2]});
        EXPECT_TRUE(preds[0].value().AllFinite());
      }
    }
  }
}

TEST(DiffOdeModelTest, PtStrategyVariantsRun) {
  data::IrregularSeries s = MakeSeries(6, 2, 4);
  for (auto strategy : {sparsity::PtStrategy::kMaxHoyer,
                        sparsity::PtStrategy::kMinNorm,
                        sparsity::PtStrategy::kAdaH}) {
    DiffOdeConfig config = FastConfig(2);
    config.pt_strategy = strategy;
    DiffOde model(config);
    EXPECT_TRUE(model.ClassifyLogits(s).value().AllFinite());
  }
}

TEST(DiffOdeModelTest, MultiHeadVariantsRun) {
  data::IrregularSeries s = MakeSeries(6, 2, 5);
  for (Index heads : {1, 2, 4}) {
    DiffOdeConfig config = FastConfig(2);
    config.num_heads = heads;
    DiffOde model(config);
    EXPECT_TRUE(model.ClassifyLogits(s).value().AllFinite()) << heads;
  }
}

TEST(DiffOdeModelTest, ParameterCountPositiveAndStable) {
  DiffOde model(FastConfig(2));
  const Index n1 = model.NumParams();
  EXPECT_GT(n1, 100);
  EXPECT_EQ(model.NumParams(), n1);
}

TEST(DiffOdeModelTest, ClassificationLossDecreasesWithTraining) {
  DiffOdeConfig config = FastConfig(1);
  DiffOde model(config);
  // Two easily separable series: constant +1 vs constant -1.
  data::IrregularSeries pos = MakeSeries(5, 1, 6);
  data::IrregularSeries neg = MakeSeries(5, 1, 7);
  for (Index i = 0; i < 5; ++i) {
    pos.values.at(i, 0) = 1.0;
    neg.values.at(i, 0) = -1.0;
  }
  pos.label = 1;
  neg.label = 0;
  nn::Adam opt(model.Params(), 0.02);
  Scalar first_loss = 0.0, last_loss = 0.0;
  for (int step = 0; step < 30; ++step) {
    ag::Var loss_p = ag::SoftmaxCrossEntropy(model.ClassifyLogits(pos), {1});
    ag::Var loss_n = ag::SoftmaxCrossEntropy(model.ClassifyLogits(neg), {0});
    ag::Var loss = ag::Add(loss_p, loss_n);
    const Scalar value = loss.value().item();
    if (step == 0) first_loss = value;
    last_loss = value;
    loss.Backward();
    opt.StepAndZero();
  }
  EXPECT_LT(last_loss, first_loss * 0.5);
}

TEST(DiffOdeModelTest, RegressionLossDecreasesWithTraining) {
  DiffOdeConfig config = FastConfig(1);
  config.step = 1.0;
  DiffOde model(config);
  data::IrregularSeries s = MakeSeries(6, 1, 8);
  std::vector<Scalar> targets_t = {s.times[1], s.times[3], s.times[4]};
  Tensor target(Shape{3, 1});
  for (int i = 0; i < 3; ++i) target.at(i, 0) = 0.5;
  nn::Adam opt(model.Params(), 0.02);
  Scalar first_loss = 0.0, last_loss = 0.0;
  for (int step = 0; step < 30; ++step) {
    auto preds = model.PredictAt(s, targets_t);
    ag::Var loss = ag::MseLoss(ag::ConcatRows(preds), target);
    const Scalar value = loss.value().item();
    if (step == 0) first_loss = value;
    last_loss = value;
    loss.Backward();
    opt.StepAndZero();
  }
  EXPECT_LT(last_loss, first_loss * 0.5);
}

// Central-difference gradcheck of a whole DIFFODE forward: the masked MSE
// of interpolation queries plus the aux loss (the consistency anchors), with
// respect to every parameter tensor the loss reaches — encoder, φ, h2-head,
// f_r, w_r, r_init and the regression head (and the adaH head under adaH).
// One short context per variant of batched_equiv_test, with n > d so
// max-Hoyer corrects.
TEST(DiffOdeModelTest, WholeModelGradientMatchesFiniteDifferences) {
  DiffOdeConfig base;
  base.input_dim = 1;
  base.latent_dim = 4;
  base.hippo_dim = 3;
  base.info_dim = 3;
  base.mlp_hidden = 5;
  base.step = 2.0;
  std::vector<std::pair<std::string, DiffOdeConfig>> variants;
  variants.emplace_back("default", base);
  variants.emplace_back("minNorm", base);
  variants.back().second.pt_strategy = sparsity::PtStrategy::kMinNorm;
  variants.emplace_back("adaH", base);
  variants.back().second.pt_strategy = sparsity::PtStrategy::kAdaH;
  variants.emplace_back("direct head", base);
  variants.back().second.head = OutputHead::kDirect;
  variants.emplace_back("no attention", base);
  variants.back().second.use_attention = false;
  variants.emplace_back("MLP encoder", base);
  variants.back().second.encoder = EncoderType::kMlp;
  variants.emplace_back("2 heads", base);
  variants.back().second.num_heads = 2;

  data::IrregularSeries s = MakeSeries(6, 1, 12);
  const std::vector<Scalar> queries = {s.times[1], s.times[4] + 0.3,
                                       s.times.back() + 0.5};
  const Tensor target = Tensor::Full(Shape{3, 1}, 0.25);
  Tensor mask = Tensor::Ones(Shape{3, 1});
  mask.at(1, 0) = 0.0;
  for (const auto& [name, config] : variants) {
    DiffOde model(config);
    auto loss_fn = [&model, &s, &queries, &target, &mask] {
      ag::Var loss = ag::MaskedMseLoss(
          ag::ConcatRows(model.PredictAt(s, queries)), target, mask);
      ag::Var aux = model.TakeAuxiliaryLoss();
      return aux.defined() ? ag::Add(loss, aux) : loss;
    };
    // CollectParams order: encoder (4), φ (4), h2-head (2), adaH head (2),
    // f_r (4), w_r (2), r_init (2), classification head (4, unused here),
    // regression head (4).
    std::vector<ag::Var> params = model.Params();
    ASSERT_EQ(params.size(), 28u) << name;
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (i >= 20 && i < 24) continue;
      EXPECT_LT(testing::MaxGradError(params[i], loss_fn, 1e-6), 1e-6)
          << name << " param " << i;
    }
  }
}

TEST(DiffOdeModelTest, DeterministicAcrossIdenticalSeeds) {
  DiffOdeConfig config = FastConfig(2);
  DiffOde m1(config), m2(config);
  data::IrregularSeries s = MakeSeries(6, 2, 10);
  Tensor l1 = m1.ClassifyLogits(s).value();
  Tensor l2 = m2.ClassifyLogits(s).value();
  EXPECT_EQ((l1 - l2).MaxAbs(), 0.0);
}

TEST(DiffOdeModelTest, SparseMaskHandled) {
  DiffOde model(FastConfig(2));
  data::IrregularSeries s = MakeSeries(6, 2, 11);
  // Zero out most of the mask.
  for (Index i = 0; i < 6; ++i)
    for (Index j = 0; j < 2; ++j) s.mask.at(i, j) = (i + j) % 2;
  EXPECT_TRUE(model.ClassifyLogits(s).value().AllFinite());
}

}  // namespace
}  // namespace diffode::core
