// Serving workloads: one closed-loop client sends requests of 32 sequences
// to core::BatchPredictor over a checkpoint that set-up trained, saved and
// reloaded the way `diffode_cli predict` does.
//
//   serve-ushcn-f64  USHCN-like stations, interpolation queries inside the
//                    window, frozen f64 (the f64 lockstep engine).
//   serve-icu-f32    PhysioNet-like stays cut at a seeded observation,
//                    queries at seeded later observations, frozen f32 (the
//                    f32 engine): ragged contexts and sparse waves.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "autograd/variable.h"
#include "core/batch_plans.h"
#include "core/batch_predictor.h"
#include "core/dhs.h"
#include "core/diffode_model.h"
#include "data/csv_loader.h"
#include "data/encoding.h"
#include "data/generators.h"
#include "data/sequence_batch.h"
#include "data/splits.h"
#include "nn/serialize.h"
#include "train/trainer.h"
#include "workloads.h"

namespace diffode::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr Index kBatch = 32;         // sequences per request (one flush)
constexpr Index kPoolSeqs = 1024;    // distinct sequences the client cycles
constexpr Index kFitSeqs = 64;       // series the checkpoint is fit on
constexpr Index kHorizonObs = 8;     // ICU queries: among the next 8 obs
constexpr Index kMinContext = 20;    // ICU contexts keep at least 20 obs
constexpr Scalar kSpan = 10.0;       // DiffOde's encoder time window
constexpr Index kStagesPerStep = 2;  // RHS calls per step: DiffOde's default
                                     // ode::DiffMethod::kMidpoint

struct ServeSpec {
  const char* name;
  bool icu;  // PhysioNet-like extrapolation, else USHCN-like interpolation
  Precision precision;
  Index max_queries;  // query times per sequence, at most
};

constexpr ServeSpec kSpecs[] = {
    {"serve-ushcn-f64", false, Precision::kF64, 8},
    {"serve-icu-f32", true, Precision::kF32, 4},
};

// The held-out truth behind one sequence's query times.
struct Truth {
  Tensor values;  // queries x f
  Tensor mask;    // 1 where the value was observed
};

// Request sequences: the contexts a client sends, their query times and
// the truth at those times.
struct Requests {
  std::vector<data::IrregularSeries> contexts;
  std::vector<std::vector<Scalar>> times;
  std::vector<Truth> truth;
};

// What set-up leaves for the timed loop.
struct Served {
  core::DiffOdeConfig config;
  std::string checkpoint;
  std::unique_ptr<core::DiffOde> model;  // loaded and frozen
  data::Dataset fit;                     // the checkpoint's training data
  std::vector<data::IrregularSeries> population;  // requests come from here
  Requests requests;  // drawn with the run's seed, read back from CSV
};

// The population every request is drawn from, and the checkpoint's
// training data, are the same for every seed: one dataset from kFixedSeed,
// z-scored together, whose first kFitSeqs series fit the checkpoint. The
// seed draws the requests (MakeRequests), so the served model and its data
// distribution stay put while the inputs change.
void MakePopulation(const ServeSpec& spec, Served* out) {
  // A few spare series: an ICU stay too short to cut is skipped.
  const Index count = kFitSeqs + kPoolSeqs + kPoolSeqs / 8;
  data::Dataset ds;
  if (spec.icu) {
    data::PhysioNetLikeConfig config;
    config.num_patients = count;
    config.seed = kFixedSeed;
    ds = data::MakePhysioNetLike(config);
  } else {
    data::UshcnLikeConfig config;
    config.num_stations = count;
    config.num_days = 120;  // about 60 observations per station
    config.seed = kFixedSeed;
    ds = data::MakeUshcnLike(config);
  }
  data::NormalizeDataset(&ds);
  out->fit = data::Dataset();
  out->fit.num_features = ds.num_features;
  out->population.clear();
  Index i = 0;
  for (auto* split : {&ds.train, &ds.val, &ds.test}) {
    for (auto& s : *split) {
      if (i < kFitSeqs) {
        (i < kFitSeqs * 6 / 10 ? out->fit.train : out->fit.val)
            .push_back(std::move(s));
      } else {
        out->population.push_back(std::move(s));
      }
      ++i;
    }
  }
}

// Draws kPoolSeqs requests from the population with `seed`: the order, and
// for USHCN the held-out entries (interpolation), for ICU the cut point and
// the later observations queried (extrapolation). Up to spec.max_queries
// query times per sequence. Returns false if too few series qualify.
bool MakeRequests(const ServeSpec& spec,
                  const std::vector<data::IrregularSeries>& population,
                  std::uint64_t seed, Requests* out) {
  std::vector<std::size_t> order(population.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(SubSeed(seed, 2));
  std::shuffle(order.begin(), order.end(), rng.engine());
  *out = Requests();
  for (std::size_t idx : order) {
    if (static_cast<Index>(out->contexts.size()) == kPoolSeqs) break;
    const data::IrregularSeries& s = population[idx];
    const Index f = s.num_features();
    data::IrregularSeries context;
    const data::IrregularSeries* target = &s;
    std::vector<Index> rows;  // candidate query rows of `target`
    data::TaskView view;
    if (spec.icu) {
      // Cut the stay at a seeded observation; the queries are seeded among
      // the next kHorizonObs observations, so contexts are ragged and
      // horizons differ per row.
      const Index n = s.length();
      if (n < kMinContext + 2) continue;
      const Index cut = rng.UniformInt(kMinContext - 1, n - 2);
      context = s.Slice(0, cut + 1);
      for (Index i = cut + 1; i < std::min(n, cut + 1 + kHorizonObs); ++i)
        rows.push_back(i);
    } else {
      // Interpolation: the truth is the entries the view held out.
      view = data::MakeInterpolationView(s, 0.3, rng);
      context = view.context;
      target = &view.target;
      for (Index i = 0; i < target->length(); ++i) {
        bool any = false;
        for (Index j = 0; j < f; ++j) any = any || target->mask.at(i, j) > 0;
        if (any) rows.push_back(i);
      }
    }
    if (rows.empty() || context.length() < 2) continue;
    std::shuffle(rows.begin(), rows.end(), rng.engine());
    rows.resize(std::min<std::size_t>(
        rows.size(), static_cast<std::size_t>(spec.max_queries)));
    std::sort(rows.begin(), rows.end());
    const Index q = static_cast<Index>(rows.size());
    Truth truth{Tensor(Shape{q, f}), Tensor(Shape{q, f})};
    std::vector<Scalar> times;
    for (Index k = 0; k < q; ++k) {
      const Index i = rows[static_cast<std::size_t>(k)];
      times.push_back(target->times[static_cast<std::size_t>(i)]);
      for (Index j = 0; j < f; ++j) {
        truth.values.at(k, j) = target->values.at(i, j);
        truth.mask.at(k, j) = target->mask.at(i, j);
      }
    }
    context.label = -1;  // regression requests: the CSV has no label column
    out->contexts.push_back(std::move(context));
    out->times.push_back(std::move(times));
    out->truth.push_back(std::move(truth));
  }
  return static_cast<Index>(out->contexts.size()) == kPoolSeqs;
}

// One set-up, as `diffode_cli train --save` then `diffode_cli predict`:
// generate the data, fit a checkpoint for a few epochs, save it, write the
// requests to CSV and read them back, load the checkpoint into a fresh model
// and freeze it at the workload's precision. Returns false on failure.
bool Setup(const ServeSpec& spec, const RunOptions& options, Recorder* rec,
           std::int64_t rep, Served* out) {
  Recorder::Span setup_span(rec, "setup", rep);
  const std::string stem = options.workdir + "/" + spec.name;
  out->checkpoint = stem + "-weights.bin";
  const std::string csv = stem + "-requests.csv";
  {
    Recorder::Span span(rec, "data.generate", rep);
    MakePopulation(spec, out);
    if (!MakeRequests(spec, out->population, options.seed, &out->requests)) {
      std::fprintf(stderr, "too few series qualify as requests\n");
      return false;
    }
  }
  const Index f = out->fit.num_features;
  out->config = ModelConfig(f, kFixedSeed);
  {
    Recorder::Span span(rec, "train.checkpoint_fit", rep);
    core::DiffOde trainee(out->config);
    train::TrainOptions fit;
    fit.epochs = 2;
    fit.batch_size = 8;
    fit.lr = 3e-3;
    fit.patience = fit.epochs;
    fit.seed = kFixedSeed;
    train::TrainRegressor(&trainee, out->fit,
                          spec.icu ? train::RegressionTask::kExtrapolation
                                   : train::RegressionTask::kInterpolation,
                          fit);
    Recorder::Span save(rec, "nn.save_params", rep);
    if (!nn::SaveParams(trainee.Params(), out->checkpoint)) {
      std::fprintf(stderr, "cannot write %s\n", out->checkpoint.c_str());
      return false;
    }
  }
  {
    Recorder::Span span(rec, "data.save_csv", rep);
    if (!data::SaveCsv(out->requests.contexts, csv)) {
      std::fprintf(stderr, "cannot write %s\n", csv.c_str());
      return false;
    }
  }
  {
    Recorder::Span span(rec, "data.load_csv", rep);
    std::string error;
    out->requests.contexts = data::LoadCsv(csv, f, false, &error);
    if (static_cast<Index>(out->requests.contexts.size()) != kPoolSeqs) {
      std::fprintf(stderr, "reading %s back: %s\n", csv.c_str(),
                   error.c_str());
      return false;
    }
  }
  {
    Recorder::Span span(rec, "nn.load_params", rep);
    out->model = std::make_unique<core::DiffOde>(out->config);
    auto params = out->model->Params();
    if (!nn::LoadParams(&params, out->checkpoint)) {
      std::fprintf(stderr, "cannot load %s\n", out->checkpoint.c_str());
      return false;
    }
  }
  {
    Recorder::Span span(rec, "nn.freeze", rep);
    out->model->Freeze(spec.precision);
  }
  return true;
}

using Outputs = std::vector<std::vector<Tensor>>;  // [sequence][query] 1 x f

// f64 reference: the per-sequence PredictAt path under NoGradScope.
// f32 reference: the same checkpoint frozen at f64, through the batched
// engine (the comparison tests/precision_test.cc makes).
bool BuildReference(const ServeSpec& spec, const Served& served,
                    Outputs* ref) {
  const Requests& reqs = served.requests;
  ref->assign(reqs.contexts.size(), {});
  if (spec.precision == Precision::kF64) {
    ag::NoGradScope no_grad;
    for (std::size_t i = 0; i < reqs.contexts.size(); ++i) {
      (void)served.model->TakeAuxiliaryLoss();
      for (const ag::Var& p :
           served.model->PredictAt(reqs.contexts[i], reqs.times[i]))
        (*ref)[i].push_back(p.value());
      (void)served.model->TakeAuxiliaryLoss();
    }
    return true;
  }
  core::DiffOde f64(served.config);
  auto params = f64.Params();
  if (!nn::LoadParams(&params, served.checkpoint)) return false;
  f64.Freeze(Precision::kF64);
  core::BatchedDispatch dispatch(&f64);
  for (std::size_t b = 0; b < reqs.contexts.size(); b += kBatch) {
    const data::SequenceBatch batch =
        data::MakeSequenceBatch(reqs.contexts, static_cast<Index>(b), kBatch);
    const std::vector<std::vector<Scalar>> times(
        reqs.times.begin() + static_cast<std::ptrdiff_t>(b),
        reqs.times.begin() + static_cast<std::ptrdiff_t>(b + kBatch));
    Outputs out = dispatch.PredictAtBatched(batch, times);
    for (Index r = 0; r < kBatch; ++r)
      (*ref)[b + static_cast<std::size_t>(r)] =
          std::move(out[static_cast<std::size_t>(r)]);
  }
  return true;
}

// Checks one request's outputs (sequences [first, first + kBatch) of the
// pool) against the reference. f64: every value within 1e-10 relative.
// f32: precision_test's tiers over the request's per-readout relative
// deviations — median 1e-4, p90 1e-3, max 5e-2. Non-finite values fail.
// Returns why the request failed, or an empty string.
std::string CheckRequest(const ServeSpec& spec, const Outputs& ref,
                         std::size_t first, const Outputs& got) {
  std::vector<Scalar> rel;
  for (std::size_t r = 0; r < got.size(); ++r) {
    const std::vector<Tensor>& a = got[r];
    const std::vector<Tensor>& e = ref[first + r];
    if (a.size() != e.size()) return "wrong number of predictions";
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (!(a[k].shape() == e[k].shape())) return "wrong prediction shape";
      if (!a[k].AllFinite()) return "non-finite prediction";
      Scalar num = 0.0, den = 1.0;
      for (Index j = 0; j < e[k].numel(); ++j) {
        const Scalar diff = std::fabs(a[k][j] - e[k][j]);
        if (spec.precision == Precision::kF64 &&
            diff > 1e-10 * std::max(1.0, std::fabs(e[k][j])))
          return "f64 prediction off the per-sequence path by " +
                 std::to_string(diff);
        num = std::max(num, diff);
        den = std::max(den, std::fabs(e[k][j]));
      }
      rel.push_back(num / den);
    }
  }
  if (spec.precision == Precision::kF64 || rel.empty()) return "";
  std::sort(rel.begin(), rel.end());
  const auto quantile = [&rel](double q) {
    return rel[static_cast<std::size_t>(q * static_cast<double>(rel.size() - 1))];
  };
  if (quantile(0.5) <= 1e-4 && quantile(0.9) <= 1e-3 && rel.back() <= 5e-2)
    return "";
  return "f32 deviation tiers: median " + std::to_string(quantile(0.5)) +
         ", p90 " + std::to_string(quantile(0.9)) + ", max " +
         std::to_string(rel.back());
}

// One request the way a client calls the public serving API: a fresh
// BatchPredictor (it keeps every result it ever served), 32 Enqueue calls,
// the last of which flushes. Returns the latency in seconds; the
// predictions are copied to *out after the clock stops.
double ServeRequest(core::DiffOde* model, const Requests& reqs,
                    std::size_t first, Outputs* out) {
  const auto start = Clock::now();
  core::BatchPredictor predictor(model, kBatch);
  Index ids[kBatch];
  for (Index r = 0; r < kBatch; ++r)
    ids[r] = predictor.Enqueue(reqs.contexts[first + r], reqs.times[first + r]);
  predictor.Flush();
  const double seconds = SecondsSince(start);
  out->clear();
  for (Index r = 0; r < kBatch; ++r)
    out->push_back(predictor.result(ids[r]).predictions);
  return seconds;
}

// Serves a fixed evaluation pool once and returns the MSE (x 1e-2) of the
// predictions against the held-out truth. The pool is drawn from the
// population with kFixedSeed, so the figure is the same for every run seed
// and moves only when the served numbers do. Each request counts as
// attempted; non-finite predictions fail it.
Scalar ServedMse(const ServeSpec& spec, const Served& served, Recorder* rec) {
  Requests eval;
  if (!MakeRequests(spec, served.population, kFixedSeed, &eval)) return 0.0;
  Scalar sq = 0.0, count = 0.0;
  Outputs got;
  for (std::size_t first = 0; first < eval.contexts.size(); first += kBatch) {
    ServeRequest(served.model.get(), eval, first, &got);
    bool ok = true;
    for (std::size_t r = 0; r < got.size(); ++r) {
      const Truth& truth = eval.truth[first + r];
      for (std::size_t k = 0; k < got[r].size(); ++k) {
        ok = ok && got[r][k].AllFinite();
        for (Index j = 0; j < truth.values.cols(); ++j)
          if (truth.mask.at(static_cast<Index>(k), j) > 0) {
            const Scalar diff =
                got[r][k][j] - truth.values.at(static_cast<Index>(k), j);
            sq += diff * diff;
            count += 1.0;
          }
      }
    }
    rec->Attempt(ok);
  }
  return count > 0.0 ? sq / count * train::kMseReportScale : 0.0;
}

// The closed-loop client over the run's request pool.
class Client {
 public:
  Client(const ServeSpec& spec, const Served* served, const Outputs* ref,
         Recorder* rec)
      : spec_(spec), served_(served), ref_(ref), rec_(rec) {}

  Index num_batches() const {
    return static_cast<Index>(served_->requests.contexts.size()) / kBatch;
  }

  // Serves pool batch `b` untraced and checks it; returns its latency.
  double Serve(Index b) {
    const std::size_t first = static_cast<std::size_t>(b * kBatch);
    Outputs got;
    const double seconds =
        ServeRequest(served_->model.get(), served_->requests, first, &got);
    Check(first, got);
    return seconds;
  }

  // Serves pool batch `b` with spans around the two calls Flush makes, and
  // per-request counters; then probes the layers the engine runs inside
  // PredictAtBatched by calling their public functions on the same inputs.
  double ServeTraced(Index b, std::int64_t request) {
    const std::size_t first = static_cast<std::size_t>(b * kBatch);
    const Requests& reqs = served_->requests;
    std::vector<const data::IrregularSeries*> series;
    std::vector<std::vector<Scalar>> times;
    for (Index r = 0; r < kBatch; ++r) {
      series.push_back(&reqs.contexts[first + r]);
      times.push_back(reqs.times[first + r]);
    }
    core::BatchedDispatch dispatch(served_->model.get());
    const core::AllocStats::Snapshot before = core::AllocStats::Read();
    const auto start = Clock::now();
    data::SequenceBatch batch;
    Outputs out;
    {
      Recorder::Span span(rec_, "request", request);
      {
        Recorder::Span s(rec_, "data.make_sequence_batch", request);
        batch = data::MakeSequenceBatch(series);
      }
      {
        Recorder::Span s(rec_, "core.batched_forward", request);
        out = dispatch.PredictAtBatched(batch, times);
      }
    }
    const double seconds = SecondsSince(start);
    const core::AllocStats::Snapshot d =
        core::AllocStats::Delta(before, core::AllocStats::Read());
    Index real = 0;
    for (Index len : batch.lengths) real += len;
    rec_->Sample("data.union_points", static_cast<double>(batch.union_size()));
    rec_->Sample("data.pad_fill",
                 static_cast<double>(real) /
                     static_cast<double>(kBatch * batch.max_len));
    SampleAllocStats(rec_, d, kBatch);
    Check(first, out);
    Probe(series, times, request);
    return seconds;
  }

 private:
  void Check(std::size_t first, const Outputs& got) {
    const std::string failure = CheckRequest(spec_, *ref_, first, got);
    if (!failure.empty() && rec_->failed() == 0)
      std::fprintf(stderr, "request for sequences %zu..%zu failed: %s\n",
                   first, first + got.size() - 1, failure.c_str());
    rec_->Attempt(failure.empty());
  }
  // Layer probes, outside the request span. DiffOde::LatentZ runs the whole
  // per-sequence encoder, so it includes the encoder inputs and the DHS
  // factorization that the next two probes time on their own.
  void Probe(const std::vector<const data::IrregularSeries*>& series,
             const std::vector<std::vector<Scalar>>& times,
             std::int64_t request) {
    Recorder::Span probe(rec_, "probe", request);
    ag::NoGradScope no_grad;
    std::vector<data::EncoderInputs> inputs;
    {
      Recorder::Span s(rec_, "data.encoder_inputs", request);
      for (const data::IrregularSeries* x : series)
        inputs.push_back(data::BuildEncoderInputs(*x, kSpan));
    }
    std::vector<Tensor> z;
    {
      Recorder::Span s(rec_, "core.encode", request);
      for (const data::IrregularSeries* x : series)
        z.push_back(served_->model->LatentZ(*x));
    }
    {
      Recorder::Span s(rec_, "core.dhs_factorize", request);
      for (const Tensor& zi : z)
        (void)core::BuildDhsContext(ag::Constant(zi), served_->config.ridge);
    }
    core::BatchPlans plans;
    {
      Recorder::Span s(rec_, "core.batch_plans", request);
      std::vector<std::vector<Scalar>> norm(series.size());
      std::vector<const std::vector<Scalar>*> anchors;
      for (std::size_t r = 0; r < series.size(); ++r) {
        for (Scalar t : times[r]) norm[r].push_back(inputs[r].Normalize(t));
        // DiffOde folds observation anchors into the grid when its
        // consistency term is on (the default).
        anchors.push_back(served_->config.consistency_weight > 0.0
                              ? &inputs[r].norm_times
                              : nullptr);
      }
      plans = core::BuildBatchPlans(norm, anchors, served_->config.step);
    }
    std::size_t steps = 0, waves = 0;
    for (const ode::RowPlan& p : plans.plans) {
      steps += p.steps.size();
      waves = std::max(waves, p.steps.size());
    }
    Index backward = 0;
    for (Index row : plans.back_row) backward += row >= 0 ? 1 : 0;
    const double per_seq = static_cast<double>(steps) / kBatch;
    rec_->Sample("ode.steps_per_seq", per_seq);
    rec_->Sample("ode.nfe_per_seq", per_seq * kStagesPerStep);
    rec_->Sample("ode.waves", static_cast<double>(waves));
    rec_->Sample("ode.wave_fill",
                 waves == 0 ? 0.0
                            : static_cast<double>(steps) /
                                  static_cast<double>(waves * plans.plans.size()));
    rec_->Sample("ode.backward_rows", static_cast<double>(backward));
  }

  const ServeSpec& spec_;
  const Served* served_;
  const Outputs* ref_;
  Recorder* rec_;
};

}  // namespace

int RunServe(const RunOptions& options, Recorder* rec) {
  const ServeSpec* spec = nullptr;
  for (const ServeSpec& s : kSpecs)
    if (options.workload == s.name) spec = &s;
  if (spec == nullptr) return 2;
  rec->SetMeta("precision", PrecisionName(spec->precision));

  Served served;
  if (!RepeatSetup(rec, [&](int rep) {
        return Setup(*spec, options, rec, rep, &served);
      }))
    return 1;
  Outputs ref;
  if (!BuildReference(*spec, served, &ref)) return 1;

  rec->Set("val_mse", ServedMse(*spec, served, rec));

  Client client(*spec, &served, &ref, rec);
  const Index nb = client.num_batches();
  // Warm-up pass: fills the allocator and the code caches.
  for (Index b = 0; b < nb; ++b) client.Serve(b);

  // Closed loop over whole passes of the pool. Traced runs alternate an
  // untraced pass (the overhead baseline) with a traced one.
  rec->Set("pass_seqs", static_cast<double>(nb * kBatch));
  std::int64_t request = 0;
  const auto start = Clock::now();
  for (Index pass = 0; SecondsSince(start) < options.seconds; ++pass) {
    const bool traced = rec->tracing() && pass % 2 == 1;
    double pass_seconds = 0.0;
    for (Index b = 0; b < nb; ++b, ++request) {
      const double s = traced ? client.ServeTraced(b, request)
                              : client.Serve(b);
      if (!traced) rec->Sample("request_ms", s * 1e3);
      pass_seconds += s;
    }
    if (traced) continue;
    rec->Sample("epoch_ms", pass_seconds * 1e3);
  }
  return 0;
}

}  // namespace diffode::perfbench
