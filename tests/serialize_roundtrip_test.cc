// Checkpoint round-trip for the serving path: train a small DIFFODE, save
// it, reload into a freshly constructed model, freeze, and verify the frozen
// model reproduces the trained one bitwise under NoGradScope. Also pins the
// TakeAuxiliaryLoss contract (cleared after read, undefined when absent)
// across the whole model zoo.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "baselines/zoo.h"
#include "core/diffode_model.h"
#include "data/generators.h"
#include "data/sequence_batch.h"
#include "nn/serialize.h"
#include "tensor/random.h"
#include "train/trainer.h"

namespace diffode {
namespace {

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

data::IrregularSeries TinySeries(std::uint64_t seed) {
  Rng rng(seed);
  data::IrregularSeries s;
  const Index n = 8;
  s.values = Tensor(Shape{n, 1});
  s.mask = Tensor::Ones(Shape{n, 1});
  Scalar t = 0.0;
  for (Index i = 0; i < n; ++i) {
    t += rng.Uniform(0.2, 1.0);
    s.times.push_back(t);
    s.values.at(i, 0) = std::sin(t) + rng.Normal(0.0, 0.05);
  }
  s.label = 0;
  return s;
}

std::string CheckpointPath(const char* name) {
  return testing::TempDir() + name;
}

TEST(SerializeRoundtripTest, FrozenReloadMatchesTrainedModelBitwise) {
  data::SyntheticPeriodicConfig dconfig;
  dconfig.num_series = 12;
  dconfig.grid_points = 8;
  data::Dataset ds = data::MakeSyntheticPeriodic(dconfig);

  core::DiffOde trained(TinyConfig());
  train::TrainOptions options;
  options.epochs = 2;
  options.batch_size = 16;
  options.lr = 1e-3;
  options.patience = 100;
  (void)train::TrainClassifier(&trained, ds, options);

  const std::string path = CheckpointPath("diffode_roundtrip.ckpt");
  auto trained_params = trained.Params();
  ASSERT_TRUE(nn::SaveParams(trained_params, path));

  // Fresh model, different init seed: every weight must come from the file.
  core::DiffOdeConfig config2 = TinyConfig();
  config2.seed = 1234;
  core::DiffOde served(config2);
  auto served_params = served.Params();
  ASSERT_TRUE(nn::LoadParams(&served_params, path));
  served.Freeze();
  for (const auto& p : served.Params()) EXPECT_FALSE(p.requires_grad());

  data::IrregularSeries s = TinySeries(21);
  const std::vector<Scalar> queries = {s.times[3] + 0.1,
                                       s.times.back() + 0.5};
  (void)trained.TakeAuxiliaryLoss();
  Tensor logits_ref = trained.ClassifyLogits(s).value();
  (void)trained.TakeAuxiliaryLoss();
  std::vector<Tensor> preds_ref;
  for (auto& v : trained.PredictAt(s, queries)) preds_ref.push_back(v.value());
  (void)trained.TakeAuxiliaryLoss();

  ag::NoGradScope no_grad;
  ExpectBitwiseEqual(served.ClassifyLogits(s).value(), logits_ref, "logits");
  (void)served.TakeAuxiliaryLoss();
  std::vector<ag::Var> preds = served.PredictAt(s, queries);
  (void)served.TakeAuxiliaryLoss();
  ASSERT_EQ(preds.size(), preds_ref.size());
  for (std::size_t k = 0; k < preds.size(); ++k)
    ExpectBitwiseEqual(preds[k].value(), preds_ref[k], "PredictAt");
  std::remove(path.c_str());
}

// Serialization stores plain f64 on disk in every precision; Freeze(kF32)
// rounds the parameters through float BEFORE the snapshot cast, so a
// save -> load -> Freeze(kF32) round-trip rebuilds the frozen f32 serving
// snapshot bit for bit: the reloaded weights round to themselves (the
// rounding is idempotent) and the f32 engine is deterministic.
TEST(SerializeRoundtripTest, FrozenF32SnapshotReloadsBitExact) {
  core::DiffOde a(TinyConfig());
  a.Freeze(Precision::kF32);
  ASSERT_EQ(a.serving_precision(), Precision::kF32);
  const std::string path = CheckpointPath("diffode_f32_roundtrip.ckpt");
  auto a_params = a.Params();
  ASSERT_TRUE(nn::SaveParams(a_params, path));

  core::DiffOdeConfig config2 = TinyConfig();
  config2.seed = 4321;  // every weight must come from the file
  core::DiffOde b(config2);
  auto b_params = b.Params();
  ASSERT_TRUE(nn::LoadParams(&b_params, path));
  b.Freeze(Precision::kF32);

  // The reloaded parameters are already f32-representable, so the second
  // rounding is the identity and both masters are bitwise equal.
  const auto pa = a.Params();
  const auto pb = b.Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    ExpectBitwiseEqual(pa[i].value(), pb[i].value(), "f32 param");

  // And the f32 engines over the two snapshots produce bitwise-identical
  // serving outputs.
  const data::IrregularSeries s1 = TinySeries(31);
  const data::IrregularSeries s2 = TinySeries(32);
  const std::vector<const data::IrregularSeries*> ptrs = {&s1, &s2};
  const data::SequenceBatch batch = data::MakeSequenceBatch(ptrs);
  ExpectBitwiseEqual(a.ClassifyLogitsBatched(batch),
                     b.ClassifyLogitsBatched(batch), "f32 logits");
  const std::vector<std::vector<Scalar>> times(
      2, std::vector<Scalar>{s1.times.front(), s1.times.back() + 0.5});
  const auto preds_a = a.PredictAtBatched(batch, times);
  const auto preds_b = b.PredictAtBatched(batch, times);
  ASSERT_EQ(preds_a.size(), preds_b.size());
  for (std::size_t r = 0; r < preds_a.size(); ++r) {
    ASSERT_EQ(preds_a[r].size(), preds_b[r].size());
    for (std::size_t k = 0; k < preds_a[r].size(); ++k)
      ExpectBitwiseEqual(preds_a[r][k], preds_b[r][k], "f32 pred");
  }
  std::remove(path.c_str());
}

TEST(SerializeRoundtripTest, LoadRejectsArchitectureMismatch) {
  core::DiffOde a(TinyConfig());
  const std::string path = CheckpointPath("diffode_mismatch.ckpt");
  auto a_params = a.Params();
  ASSERT_TRUE(nn::SaveParams(a_params, path));
  core::DiffOdeConfig other = TinyConfig();
  other.latent_dim = 16;  // different shapes
  core::DiffOde b(other);
  auto b_params = b.Params();
  EXPECT_FALSE(nn::LoadParams(&b_params, path));
  std::remove(path.c_str());
}

// Overwrites the u64 at byte `offset` of the file at `path`.
void PatchU64(const std::string& path, long offset, std::uint64_t value) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&value, sizeof(value), 1, f), 1u);
  std::fclose(f);
}

TEST(SerializeRoundtripTest, LoadRejectsCorruptSizeFieldsAndKeepsModel) {
  core::DiffOde a(TinyConfig());
  const std::string path = CheckpointPath("diffode_corrupt.ckpt");
  core::DiffOdeConfig other = TinyConfig();
  other.seed = 7;  // a load that went through would change b's weights
  core::DiffOde b(other);
  auto b_params = b.Params();
  std::vector<Tensor> before;
  for (const auto& p : b_params) before.push_back(p.value());
  // Header: magic, count, then the first parameter's rank and dims.
  constexpr long kFirstRank = 16, kFirstDim = 24;
  for (const auto& [offset, value] :
       {std::pair{kFirstRank, std::uint64_t{1} << 61},
        std::pair{kFirstDim, std::uint64_t{1} << 62}}) {
    ASSERT_TRUE(nn::SaveParams(a.Params(), path));
    PatchU64(path, offset, value);
    EXPECT_FALSE(nn::LoadParams(&b_params, path)) << "offset " << offset;
    for (std::size_t i = 0; i < b_params.size(); ++i)
      ExpectBitwiseEqual(b_params[i].value(), before[i], "untouched param");
  }
  std::remove(path.c_str());
}

TEST(SerializeRoundtripTest, FrozenForwardBuildsNoTrainableGraph) {
  core::DiffOde model(TinyConfig());
  model.Freeze();
  data::IrregularSeries s = TinySeries(5);
  // Even in grad mode, a frozen model's outputs depend on no trainable leaf,
  // so the root does not require grad and carries no backward closure.
  ag::Var logits = model.ClassifyLogits(s);
  (void)model.TakeAuxiliaryLoss();
  EXPECT_FALSE(logits.requires_grad());
}

// The TakeAuxiliaryLoss contract, uniformly across the zoo:
//  - undefined before any forward,
//  - after a forward, a single Take drains the slot (second Take undefined).
TEST(SerializeRoundtripTest, TakeAuxiliaryLossContractAcrossZoo) {
  data::IrregularSeries s = TinySeries(9);
  std::vector<std::string> names = baselines::BaselineNames();
  for (const auto& name : names) {
    baselines::BaselineConfig config;
    config.input_dim = 1;
    config.hidden_dim = 8;
    config.hippo_dim = 6;
    config.step = 0.5;
    auto model = baselines::MakeBaseline(name, config);
    ASSERT_NE(model, nullptr) << name;
    EXPECT_FALSE(model->TakeAuxiliaryLoss().defined()) << name;
    (void)model->ClassifyLogits(s);
    (void)model->TakeAuxiliaryLoss();  // may or may not be defined
    EXPECT_FALSE(model->TakeAuxiliaryLoss().defined())
        << name << ": aux slot not cleared by Take";
  }
  // DIFFODE: defined after a grad-on forward (consistency term), cleared by
  // one Take, and never produced under NoGradScope.
  core::DiffOde model(TinyConfig());
  EXPECT_FALSE(model.TakeAuxiliaryLoss().defined());
  (void)model.ClassifyLogits(s);
  EXPECT_TRUE(model.TakeAuxiliaryLoss().defined());
  EXPECT_FALSE(model.TakeAuxiliaryLoss().defined());
  ag::NoGradScope no_grad;
  (void)model.ClassifyLogits(s);
  EXPECT_FALSE(model.TakeAuxiliaryLoss().defined());
}

}  // namespace
}  // namespace diffode
