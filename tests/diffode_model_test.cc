#include "core/diffode_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <string>

#include "autograd/ops.h"
#include "data/sequence_batch.h"
#include "gradcheck.h"
#include "nn/optimizer.h"
#include "tensor/random.h"
#include "tensor/simd.h"

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

// The small model the gradchecks and the aux pin run.
DiffOdeConfig GradcheckConfig() {
  DiffOdeConfig config;
  config.input_dim = 1;
  config.latent_dim = 4;
  config.hippo_dim = 3;
  config.info_dim = 3;
  config.mlp_hidden = 5;
  config.step = 2.0;
  return config;
}

// Central-difference gradcheck of a whole DIFFODE forward plus the aux loss
// (the consistency anchors), with respect to every parameter tensor the loss
// reaches: encoder, φ, h2-head, f_r, w_r, r_init and the task's head (and
// the adaH head under adaH). Regression variants score the masked MSE of
// interpolation queries through the regression head; classification
// variants score the cross-entropy of the pooled readout through the
// classification head. One short context per variant of
// batched_equiv_test, with n > d so max-Hoyer corrects.
TEST(DiffOdeModelTest, WholeModelGradientMatchesFiniteDifferences) {
  struct Variant {
    std::string name;
    DiffOdeConfig config;
    bool classify = false;
  };
  const DiffOdeConfig base = GradcheckConfig();
  std::vector<Variant> variants;
  variants.push_back({"default", base});
  variants.push_back({"minNorm", base});
  variants.back().config.pt_strategy = sparsity::PtStrategy::kMinNorm;
  variants.push_back({"adaH", base});
  variants.back().config.pt_strategy = sparsity::PtStrategy::kAdaH;
  variants.push_back({"direct head", base});
  variants.back().config.head = OutputHead::kDirect;
  variants.push_back({"no attention", base});
  variants.back().config.use_attention = false;
  variants.push_back({"MLP encoder", base});
  variants.back().config.encoder = EncoderType::kMlp;
  variants.push_back({"2 heads", base});
  variants.back().config.num_heads = 2;
  variants.push_back({"classification", base, true});
  variants.push_back({"classification, no attention", base, true});
  variants.back().config.use_attention = false;

  data::IrregularSeries s = MakeSeries(6, 1, 12);
  const std::vector<Scalar> queries = {s.times[1], s.times[4] + 0.3,
                                       s.times.back() + 0.5};
  const Tensor target = Tensor::Full(Shape{3, 1}, 0.25);
  Tensor mask = Tensor::Ones(Shape{3, 1});
  mask.at(1, 0) = 0.0;
  for (const Variant& v : variants) {
    DiffOde model(v.config);
    auto loss_fn = [&model, &s, &queries, &target, &mask, &v] {
      ag::Var loss =
          v.classify
              ? ag::SoftmaxCrossEntropy(model.ClassifyLogits(s), {s.label})
              : ag::MaskedMseLoss(ag::ConcatRows(model.PredictAt(s, queries)),
                                  target, mask);
      ag::Var aux = model.TakeAuxiliaryLoss();
      return aux.defined() ? ag::Add(loss, aux) : loss;
    };
    // CollectParams order: encoder (4), φ (4), h2-head (2), adaH head (2),
    // f_r (4), w_r (2), r_init (2), classification head (4), regression
    // head (4). The task's other head is unused.
    std::vector<ag::Var> params = model.Params();
    ASSERT_EQ(params.size(), 28u) << v.name;
    const std::size_t unused = v.classify ? 24 : 20;
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (i >= unused && i < unused + 4) continue;
      EXPECT_LT(testing::MaxGradError(params[i], loss_fn, 1e-6), 1e-6)
          << v.name << " param " << i;
    }
  }
}

// The consistency term's value on a fixed model and series, pinned at
// 1e-12 relative: it scores all n observations at once, and a change that
// scores other states or other targets moves it. On the PredictAt path the
// observations lie off the queries' step grid, so those pins hold the
// linear interpolation between step ends. On the ClassifyLogits path every
// observation is a query, hence a grid point read with weight exactly 1, so
// those pins hold the values of a grid that contains every observation.
// The test selects the scalar kernels: the kernel backends round the
// PredictAt trajectory about 1e-12 apart, and the squared residual
// amplifies that to about 6e-12 between scalar and AVX.
TEST(DiffOdeModelTest, AuxiliaryLossValueIsPinned) {
  const simd::Isa prev_isa = simd::ActiveIsa();
  ASSERT_TRUE(simd::SetActiveIsa(simd::Isa::kScalar));
  struct Pin {
    std::string name;
    DiffOdeConfig config;
    Scalar aux;
    bool classify = false;
  };
  const DiffOdeConfig base = GradcheckConfig();
  std::vector<Pin> pins;
  pins.push_back({"default", base, 2.5593274815958648e-4});
  pins.push_back({"2 heads", base, 8.6410927973804171e-4});
  pins.back().config.num_heads = 2;
  pins.push_back({"direct head", base, 2.5593274815958648e-4});
  pins.back().config.head = OutputHead::kDirect;
  pins.push_back({"classify", base, 5.930700329131542e-4, true});
  pins.push_back({"classify, 2 heads", base, 1.1047953800069541e-3, true});
  pins.back().config.num_heads = 2;
  const data::IrregularSeries s = MakeSeries(6, 1, 12);
  for (const Pin& pin : pins) {
    DiffOde model(pin.config);
    if (pin.classify)
      (void)model.ClassifyLogits(s);
    else
      (void)model.PredictAt(s, {s.times[1], s.times.back() + 0.5});
    const Scalar aux = model.TakeAuxiliaryLoss().value().item();
    EXPECT_NEAR(aux, pin.aux, 1e-12 * std::fabs(pin.aux))
        << pin.name << ": " << std::setprecision(17) << aux;
  }
  simd::SetActiveIsa(prev_isa);
}

// The consistency term rebuilt by hand for a direct-head model (state S
// only) at step 1.0. The observations span [0, 10], so their normalized
// times are the raw ones. The query at 3.5 and the last observation, which
// extends the grid, put the step ends at 0, 1, 2, 3, 3.5, 4.5, ..., 9.5, 10,
// and every interior observation lies between two of them. The hand-built
// value integrates from one step end to the next with ode::IntegrateVar,
// blends the two bracketing states linearly, and scores the blend against
// DhsForward(ctx, ctx.z).
TEST(DiffOdeModelTest, AuxiliaryLossInterpolatesBetweenStepEnds) {
  DiffOdeConfig config = GradcheckConfig();
  config.head = OutputHead::kDirect;
  config.step = 1.0;
  data::IrregularSeries s;
  s.times = {0.0, 1.3, 2.7, 4.45, 5.2, 7.05, 8.65, 10.0};
  const Index n = static_cast<Index>(s.times.size());
  const Index d = config.latent_dim;
  s.values = Tensor(Shape{n, 1});
  s.mask = Tensor::Ones(Shape{n, 1});
  for (Index i = 0; i < n; ++i)
    s.values.at(i, 0) = std::sin(s.times[static_cast<std::size_t>(i)]);
  DiffOde model(config);
  (void)model.PredictAt(s, {3.5});
  const Scalar aux = model.TakeAuxiliaryLoss().value().item();

  // The model's pieces from its public surface: Z, its DHS context, h2 from
  // the h2-head and φ's layers (CollectParams order: encoder (4), φ (4),
  // h2-head (2), ...).
  ag::NoGradScope no_grad;
  const ag::Var z = ag::Constant(model.LatentZ(s));
  const std::vector<DhsContext> heads = {BuildDhsContext(z, config.ridge)};
  const std::vector<ag::Var> p = model.Params();
  const ag::Var h2 = ag::Transpose(ag::AddRowVec(ag::MatMul(z, p[8]), p[9]));
  RhsInputs in;
  in.dims.d = d;
  in.dims.dc = config.hippo_dim;
  in.dims.dr = config.info_dim;
  in.dims.hidden = config.mlp_hidden;
  in.dims.direct = true;
  in.layers = {&p[4], &p[5], &p[6], &p[7]};
  in.heads = &heads;
  in.h2 = &h2;
  const ode::DiffOdeFunc f = [&in](Scalar t, const ag::Var& y) {
    return RhsVar(in, t, y);
  };
  const std::vector<Scalar> ends = {0.0, 1.0, 2.0, 3.0, 3.5, 4.5,
                                    5.5, 6.5, 7.5, 8.5, 9.5, 10.0};
  std::vector<Tensor> at_end = {
      DhsForward(heads[0], ag::SliceRows(z, 0, 1)).value()};
  for (std::size_t k = 1; k < ends.size(); ++k)
    at_end.push_back(
        ode::IntegrateVar(f, ag::Constant(at_end.back()), ends[k - 1],
                          ends[k], {ode::DiffMethod::kMidpoint, config.step})
            .value());
  const Tensor target = DhsForward(heads[0], heads[0].z).value();
  Scalar sum = 0.0;
  Index off_grid = 0;
  for (Index i = 0; i < n; ++i) {
    const Scalar t = s.times[static_cast<std::size_t>(i)];
    const std::size_t k = std::min<std::size_t>(
        static_cast<std::size_t>(
            std::upper_bound(ends.begin(), ends.end(), t) - ends.begin()) -
            1,
        ends.size() - 2);
    const Scalar u = (t - ends[k]) / (ends[k + 1] - ends[k]);
    if (u != 0.0 && u != 1.0) ++off_grid;
    for (Index j = 0; j < d; ++j) {
      const Scalar state = (1.0 - u) * at_end[k].at(0, j) +
                           u * at_end[k + 1].at(0, j);
      sum += (state - target.at(i, j)) * (state - target.at(i, j));
    }
  }
  EXPECT_EQ(off_grid, n - 2);
  const Scalar want =
      config.consistency_weight * sum / static_cast<Scalar>(n * d);
  EXPECT_NEAR(aux, want, 1e-12 * want) << std::setprecision(17) << aux;
}

// Queries that all lie before the last observation: while the consistency
// term is on, that observation extends the grid past every query, and the
// query states stay bitwise those of a no-grad forward and of the B = 1
// engine, which step to the queries only. One query precedes the first
// observation, so the backward row is covered too.
TEST(DiffOdeModelTest, QueriesBeforeTheLastObservationStayBitwise) {
  DiffOde model(GradcheckConfig());
  const data::IrregularSeries s = MakeSeries(6, 1, 13);
  const std::vector<Scalar> queries = {s.times[2] + 0.1, s.times[0] - 0.4,
                                       s.times[4]};
  std::vector<Tensor> grad_on;
  for (const ag::Var& v : model.PredictAt(s, queries))
    grad_on.push_back(v.value());
  EXPECT_TRUE(model.TakeAuxiliaryLoss().defined());
  const data::SequenceBatch batch = data::MakeSequenceBatch({&s});
  const std::vector<Tensor> engine = model.PredictAtBatched(batch, {queries})[0];
  ag::NoGradScope no_grad;
  const std::vector<ag::Var> no_grad_preds = model.PredictAt(s, queries);
  ASSERT_EQ(grad_on.size(), queries.size());
  ASSERT_EQ(engine.size(), queries.size());
  ASSERT_EQ(no_grad_preds.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const Tensor& ng = no_grad_preds[q].value();
    ASSERT_TRUE(ng.shape() == grad_on[q].shape() &&
                engine[q].shape() == grad_on[q].shape());
    for (Index j = 0; j < ng.numel(); ++j) {
      EXPECT_EQ(ng[j], grad_on[q][j]) << "query " << q;
      EXPECT_EQ(engine[q][j], grad_on[q][j]) << "query " << q;
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
