// Training workload: train-ushcn-interp, DIFFODE interpolation through
// train::TrainRegressor on USHCN-like stations (the Table V setting at 76
// training sequences). Each timed unit is one epoch: the sharded
// forward/backward over the pool, the gradient merge, the Adam steps and the
// validation EvaluateMse the trainer runs after every epoch.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "autograd/arena.h"
#include "autograd/ops.h"
#include "core/diffode_model.h"
#include "data/csv_loader.h"
#include "data/generators.h"
#include "data/splits.h"
#include "nn/optimizer.h"
#include "tensor/buffer_pool.h"
#include "train/trainer.h"
#include "workloads.h"

namespace diffode::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr Index kStations = 128;    // 76 train / 25 val / 27 test
constexpr Index kWarmupEpochs = 6;  // untimed; val_mse is taken after them
constexpr Index kCheckEpochs = 2;   // replayed on a twin model: same losses
constexpr Index kReplayBatch = 8;   // the trainer's minibatch size here
constexpr auto kTask = train::RegressionTask::kInterpolation;

train::TrainOptions EpochOptions(std::uint64_t seed, Index epoch) {
  train::TrainOptions options;
  options.epochs = 1;
  options.batch_size = kReplayBatch;
  options.lr = 3e-3;
  options.patience = 1;
  options.seed = SubSeed(seed, 100 + static_cast<std::uint64_t>(epoch));
  return options;
}

// Set-up as `diffode_cli train` does it: the series come from a CSV file,
// are split 60/20/20 in file order and z-scored with train statistics. The
// stations and initial weights are the same for every seed; the seed drives
// the entries each timed epoch holds out and its minibatch order
// (TrainOptions::seed).
bool Setup(const RunOptions& options, Recorder* rec, std::int64_t rep,
           data::Dataset* ds) {
  Recorder::Span setup_span(rec, "setup", rep);
  const std::string csv = options.workdir + "/" + options.workload + ".csv";
  std::vector<data::IrregularSeries> all;
  {
    Recorder::Span span(rec, "data.generate", rep);
    data::UshcnLikeConfig config;
    config.num_stations = kStations;
    config.num_days = 120;
    config.seed = kFixedSeed;
    data::Dataset generated = data::MakeUshcnLike(config);
    all = std::move(generated.train);
    all.insert(all.end(), generated.val.begin(), generated.val.end());
    all.insert(all.end(), generated.test.begin(), generated.test.end());
  }
  {
    Recorder::Span span(rec, "data.save_csv", rep);
    if (!data::SaveCsv(all, csv)) {
      std::fprintf(stderr, "cannot write %s\n", csv.c_str());
      return false;
    }
  }
  const Index f = all.front().num_features();
  {
    Recorder::Span span(rec, "data.load_csv", rep);
    std::string error;
    all = data::LoadCsv(csv, f, false, &error);
    if (static_cast<Index>(all.size()) != kStations) {
      std::fprintf(stderr, "reading %s back: %s\n", csv.c_str(),
                   error.c_str());
      return false;
    }
  }
  {
    Recorder::Span span(rec, "data.normalize", rep);
    *ds = data::Dataset();
    ds->num_features = f;
    const std::size_t n = all.size();
    for (std::size_t i = 0; i < n; ++i) {
      auto& split = i < n * 6 / 10 ? ds->train
                    : i < n * 8 / 10 ? ds->val
                                     : ds->test;
      split.push_back(std::move(all[i]));
    }
    data::NormalizeDataset(ds);
  }
  return true;
}

// One minibatch replayed serially on the client thread through the calls
// the trainer's shards make — PredictAt, MaskedMseLoss, Backward — then the
// optimizer step, on a scratch copy of the model so the trained model is
// left alone. Times each layer with spans.
class Replay {
 public:
  Replay(const core::DiffOdeConfig& config, const data::Dataset& ds,
         std::uint64_t seed)
      : model_(config),
        params_(model_.Params()),
        adam_(params_, 3e-3, 1e-3) {
    Rng rng(SubSeed(seed, 5));
    for (const data::IrregularSeries& s : ds.train) {
      if (static_cast<Index>(items_.size()) == kReplayBatch) break;
      Item item;
      item.view = data::MakeInterpolationView(s, 0.3, rng);
      const data::IrregularSeries& t = item.view.target;
      std::vector<Index> rows;
      for (Index i = 0; i < t.length(); ++i) {
        bool any = false;
        for (Index j = 0; j < t.num_features(); ++j)
          any = any || t.mask.at(i, j) > 0;
        if (any) rows.push_back(i);
      }
      if (rows.empty() || item.view.context.length() < 2) continue;
      const Index m = static_cast<Index>(rows.size());
      item.values = Tensor(Shape{m, t.num_features()});
      item.mask = Tensor(Shape{m, t.num_features()});
      for (Index k = 0; k < m; ++k) {
        const Index i = rows[static_cast<std::size_t>(k)];
        item.times.push_back(t.times[static_cast<std::size_t>(i)]);
        for (Index j = 0; j < t.num_features(); ++j) {
          item.values.at(k, j) = t.values.at(i, j);
          item.mask.at(k, j) = t.mask.at(i, j);
        }
      }
      items_.push_back(std::move(item));
    }
  }

  void Run(const std::vector<ag::Var>& weights, Recorder* rec,
           std::int64_t request) {
    for (std::size_t i = 0; i < params_.size(); ++i)
      params_[i].mutable_value() = weights[i].value();
    adam_.ZeroGrad();
    {
      ag::TapeArena::Scope arena_scope;
      tensor::BufferPool::Scope pool_scope;
      for (const Item& item : items_) {
        {
          ag::Var loss;
          {
            Recorder::Span span(rec, "train.forward", request);
            (void)model_.TakeAuxiliaryLoss();
            const std::vector<ag::Var> preds =
                model_.PredictAt(item.view.context, item.times);
            loss = ag::MaskedMseLoss(ag::ConcatRows(preds), item.values,
                                     item.mask);
            const ag::Var aux = model_.TakeAuxiliaryLoss();
            if (aux.defined()) loss = ag::Add(loss, aux);
          }
          Recorder::Span span(rec, "autograd.backward", request);
          loss.Backward();
        }
        ag::TapeArena::ThreadLocal().Reset();
      }
    }
    Recorder::Span span(rec, "nn.optimizer", request);
    adam_.ScaleGrads(1.0 / static_cast<Scalar>(items_.size()));
    adam_.ClipGradNorm(5.0);
    adam_.StepAndZero();
  }

 private:
  struct Item {
    data::TaskView view;
    std::vector<Scalar> times;
    Tensor values;
    Tensor mask;
  };

  core::DiffOde model_;
  std::vector<ag::Var> params_;
  nn::Adam adam_;
  std::vector<Item> items_;
};

bool SameBits(Scalar a, Scalar b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

int RunTrain(const RunOptions& options, Recorder* rec) {
  if (options.workload != "train-ushcn-interp") return 2;
  data::Dataset ds;
  if (!RepeatSetup(rec, [&](int rep) { return Setup(options, rec, rep, &ds); }))
    return 1;
  const core::DiffOdeConfig config = ModelConfig(ds.num_features, kFixedSeed);
  core::DiffOde model(config);

  // Warm-up epochs on a schedule that is the same for every seed; the MSE
  // on the held-out stations after them is val_mse, so it moves only when
  // the training numerics do. The first epochs, run again on a twin model,
  // must give finite, bitwise identical losses.
  const auto epoch_loss = [&](core::DiffOde* m, std::uint64_t seed, Index epoch) {
    return train::TrainRegressor(m, ds, kTask, EpochOptions(seed, epoch))
        .train_losses.front();
  };
  std::vector<Scalar> losses;
  for (Index e = 0; e < kWarmupEpochs; ++e)
    losses.push_back(epoch_loss(&model, kFixedSeed, e));
  std::vector<data::IrregularSeries> held_out = ds.val;
  held_out.insert(held_out.end(), ds.test.begin(), ds.test.end());
  rec->Set("val_mse", train::EvaluateMse(&model, held_out, kTask, 0.3, 17));
  {
    core::DiffOde twin(config);
    for (Index e = 0; e < kCheckEpochs; ++e) {
      const Scalar l = epoch_loss(&twin, kFixedSeed, e);
      const Scalar ref = losses[static_cast<std::size_t>(e)];
      rec->Attempt(std::isfinite(l) && SameBits(l, ref));
    }
  }

  Replay replay(config, ds, options.seed);
  const std::vector<ag::Var> weights = model.Params();
  const Index n_train = static_cast<Index>(ds.train.size());
  rec->Set("pass_seqs", static_cast<double>(n_train));
  const auto start = Clock::now();
  for (Index e = kWarmupEpochs; SecondsSince(start) < options.seconds; ++e) {
    // Traced runs alternate an untraced epoch (the overhead baseline) with
    // a traced one followed by the layer replay.
    const bool traced = rec->tracing() && e % 2 == 1;
    const core::AllocStats::Snapshot before = core::AllocStats::Read();
    const auto epoch_start = Clock::now();
    Scalar loss = 0.0;
    {
      Recorder* span_rec = traced ? rec : nullptr;
      Recorder::Span span(span_rec, "request", e);
      Recorder::Span fit(span_rec, "train.fit_epoch", e);
      loss = epoch_loss(&model, options.seed, e);
    }
    const double seconds = SecondsSince(epoch_start);
    rec->Attempt(std::isfinite(loss));
    if (!traced) {
      rec->Sample("request_ms", seconds * 1e3);
      rec->Sample("epoch_ms", seconds * 1e3);
      continue;
    }
    SampleAllocStats(
        rec, core::AllocStats::Delta(before, core::AllocStats::Read()), n_train);
    Recorder::Span probe(rec, "probe", e);
    replay.Run(weights, rec, e);
    Recorder::Span eval(rec, "train.eval", e);
    (void)train::EvaluateMse(&model, ds.val, kTask, 0.3, 17);
  }
  return 0;
}

}  // namespace diffode::perfbench
