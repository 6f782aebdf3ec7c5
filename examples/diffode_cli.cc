// Command-line front end for the library: generate synthetic datasets to
// CSV, train any model in the zoo (or DIFFODE) on a CSV dataset, and
// evaluate on the three tasks. A downstream user can drive the whole system
// without writing C++.
//
//   diffode_cli generate --dataset=ushcn --out=climate.csv
//   diffode_cli train --data=climate.csv --channels=5 --task=interpolation
//               --model=DIFFODE --epochs=10 --save=weights.bin
//   diffode_cli train --data=labeled.csv --channels=1 --labels
//               --task=classification --model=DIFFODE
//   diffode_cli predict --data=climate.csv --channels=5
//               --load=weights.bin --at=12.5,14.0 --batch=32
//
// Flags use --key=value form; `diffode_cli help` lists everything.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>

#include "baselines/zoo.h"
#include "core/batch_predictor.h"
#include "core/diffode_model.h"
#include "data/csv_loader.h"
#include "data/generators.h"
#include "data/splits.h"
#include "nn/serialize.h"
#include "train/trainer.h"

namespace {

using namespace diffode;

using Flags = std::map<std::string, std::string>;

// Upper bound of --channels, --batch and the class count.
constexpr Index kMaxWidth = 4096;

Flags ParseFlags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!arg.starts_with("--")) continue;
    arg.remove_prefix(2);
    // --key alone means --key=1; a repeated key keeps its last value.
    const auto eq = arg.find('=');
    const std::string_view value =
        eq == std::string_view::npos ? "1" : arg.substr(eq + 1);
    flags.insert_or_assign(std::string(arg.substr(0, eq)), std::string(value));
  }
  return flags;
}

std::string FlagOr(const Flags& flags, const std::string& key,
                   const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

// Parses all of `text` as one finite number.
bool ParseFinite(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end == text.c_str() + text.size() &&
         std::isfinite(*out);
}

// Reads the numeric flag --key (`fallback` when absent) into *out. The text
// must parse as a finite number in [lo, hi], and as a whole number when T is
// an integer type; otherwise names the flag on stderr and returns false.
template <typename T>
bool NumericFlag(const Flags& flags, const std::string& key, T fallback,
                 T lo, T hi, T* out) {
  const auto it = flags.find(key);
  if (it == flags.end()) {
    *out = fallback;
    return true;
  }
  double v = 0.0;
  if (ParseFinite(it->second, &v) && v >= static_cast<double>(lo) &&
      v <= static_cast<double>(hi) &&
      (std::is_floating_point_v<T> || v == std::floor(v))) {
    *out = static_cast<T>(v);
    return true;
  }
  std::fprintf(stderr, "bad --%s=%s: expected %s in [%g, %g]\n", key.c_str(),
               it->second.c_str(),
               std::is_integral_v<T> ? "an integer" : "a number",
               static_cast<double>(lo), static_cast<double>(hi));
  return false;
}

int Usage() {
  std::printf(
      "usage:\n"
      "  diffode_cli generate --dataset=<synthetic|ushcn|physionet|largest|"
      "lorenz96> --out=<csv> [--count=N]\n"
      "  diffode_cli train --data=<csv> --channels=F [--labels]\n"
      "      --task=<classification|interpolation|extrapolation>\n"
      "      [--model=DIFFODE] [--epochs=10] [--lr=0.003] [--latent=16]\n"
      "      [--step=0.5] [--save=weights.bin] [--load=weights.bin]\n"
      "  diffode_cli predict --data=<csv> --channels=F --load=weights.bin\n"
      "      --at=<t1,t2,...> [--model=DIFFODE] [--latent=16] [--step=0.5]\n"
      "      [--batch=N]    # serve N sequences per lockstep batch\n"
      "      [--precision=<f64|f32>]  # f32: frozen float serving tier\n"
      "  diffode_cli models     # list available models\n");
  return 1;
}

// Parses a comma-separated list of query times. Every item must be a
// finite number; otherwise returns false and names the bad item in *error.
bool ParseTimes(const std::string& csv, std::vector<Scalar>* out,
                std::string* error) {
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t next = csv.find(',', pos);
    if (next == std::string::npos) next = csv.size();
    const std::string item = csv.substr(pos, next - pos);
    Scalar t = 0.0;
    if (!ParseFinite(item, &t)) {
      *error = "'" + item + "' is not a finite time";
      return false;
    }
    out->push_back(t);
    pos = next + 1;
  }
  return true;
}

// Builds --model (DIFFODE or a BaselineNames() entry) sized by --latent and
// --step. Returns nullptr, with the bad flag named on stderr, on bad input.
std::unique_ptr<core::SequenceModel> MakeCliModel(const Flags& flags,
                                                  Index channels,
                                                  Index num_classes) {
  const std::string name = FlagOr(flags, "model", "DIFFODE");
  Index latent = 0;
  Scalar step = 0.0;
  if (!NumericFlag<Index>(flags, "latent", 16, 1, 1024, &latent) ||
      !NumericFlag<Scalar>(flags, "step", 0.5, 1e-3, 10.0, &step))
    return nullptr;
  if (name == "DIFFODE") {
    core::DiffOdeConfig config;
    config.input_dim = channels;
    config.latent_dim = latent;
    config.hippo_dim = 12;
    config.info_dim = 12;
    config.num_classes = num_classes;
    config.step = step;
    return std::make_unique<core::DiffOde>(config);
  }
  const auto names = baselines::BaselineNames();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    std::fprintf(stderr, "unknown --model=%s (see `diffode_cli models`)\n",
                 name.c_str());
    return nullptr;
  }
  baselines::BaselineConfig config;
  config.input_dim = channels;
  config.hidden_dim = latent;
  config.num_classes = num_classes;
  config.step = step;
  return baselines::MakeBaseline(name, config);
}

int RunGenerate(const Flags& flags) {
  const std::string kind = FlagOr(flags, "dataset", "synthetic");
  const std::string out = FlagOr(flags, "out", "dataset.csv");
  Index count = 0;
  if (!NumericFlag<Index>(flags, "count", 60, 1, 1000000, &count)) return 1;
  data::Dataset ds;
  if (kind == "synthetic") {
    data::SyntheticPeriodicConfig config;
    config.num_series = count;
    ds = data::MakeSyntheticPeriodic(config);
  } else if (kind == "ushcn") {
    data::UshcnLikeConfig config;
    config.num_stations = count;
    ds = data::MakeUshcnLike(config);
  } else if (kind == "physionet") {
    data::PhysioNetLikeConfig config;
    config.num_patients = count;
    ds = data::MakePhysioNetLike(config);
  } else if (kind == "largest") {
    data::LargeStLikeConfig config;
    config.num_sensors = count;
    ds = data::MakeLargeStLike(config);
  } else if (kind == "lorenz96") {
    data::DynamicalSystemConfig config;
    config.trajectory_steps = count * config.window;
    ds = data::MakeLorenz96(config);
  } else {
    std::fprintf(stderr, "unknown dataset %s\n", kind.c_str());
    return 1;
  }
  std::vector<data::IrregularSeries> all = ds.train;
  all.insert(all.end(), ds.val.begin(), ds.val.end());
  all.insert(all.end(), ds.test.begin(), ds.test.end());
  if (!data::SaveCsv(all, out)) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu series (%lld features) to %s\n", all.size(),
              static_cast<long long>(ds.num_features), out.c_str());
  return 0;
}

int RunTrain(const Flags& flags) {
  const std::string path = FlagOr(flags, "data", "");
  if (path.empty()) return Usage();
  const std::string task = FlagOr(flags, "task", "classification");
  if (task != "classification" && task != "interpolation" &&
      task != "extrapolation") {
    std::fprintf(stderr,
                 "unknown --task=%s "
                 "(classification|interpolation|extrapolation)\n",
                 task.c_str());
    return 1;
  }
  Index channels = 0;
  train::TrainOptions options;
  if (!NumericFlag<Index>(flags, "channels", 1, 1, kMaxWidth, &channels) ||
      !NumericFlag<Index>(flags, "epochs", 10, 0, 100000, &options.epochs) ||
      !NumericFlag<Scalar>(flags, "lr", 0.003, 0.0, 10.0, &options.lr))
    return 1;
  const bool labels = flags.count("labels") > 0;
  std::string error;
  auto series = data::LoadCsv(path, channels, labels, &error);
  if (series.empty()) {
    std::fprintf(stderr, "load failed: %s\n", error.c_str());
    return 1;
  }
  // 60/20/20 split in file order.
  data::Dataset ds;
  ds.num_features = channels;
  const std::size_t n = series.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i < n * 6 / 10) {
      ds.train.push_back(series[i]);
    } else if (i < n * 8 / 10) {
      ds.val.push_back(series[i]);
    } else {
      ds.test.push_back(series[i]);
    }
  }
  if (labels) {
    Index max_label = 0;
    for (const auto& s : series) max_label = std::max(max_label, s.label);
    if (max_label >= kMaxWidth) {
      std::fprintf(stderr,
                   "bad label %lld: expected an integer in [0, %lld]\n",
                   static_cast<long long>(max_label),
                   static_cast<long long>(kMaxWidth - 1));
      return 1;
    }
    ds.num_classes = max_label + 1;
  }
  data::NormalizeDataset(&ds);

  auto model =
      MakeCliModel(flags, channels, std::max<Index>(ds.num_classes, 2));
  if (model == nullptr) return 1;
  auto params = model->Params();
  const std::string load = FlagOr(flags, "load", "");
  if (!load.empty() && !nn::LoadParams(&params, load)) {
    std::fprintf(stderr, "cannot load weights from %s\n", load.c_str());
    return 1;
  }
  std::printf("model %s: %lld parameters\n", model->name().c_str(),
              static_cast<long long>(model->NumParams()));

  options.patience = options.epochs;
  options.verbose = true;
  if (task == "classification") {
    if (!labels) {
      std::fprintf(stderr, "classification needs --labels\n");
      return 1;
    }
    train::TrainClassifier(model.get(), ds, options);
    std::printf("test accuracy: %.4f\n",
                train::EvaluateAccuracy(model.get(), ds.test));
  } else {
    const auto kind = task == "interpolation"
                          ? train::RegressionTask::kInterpolation
                          : train::RegressionTask::kExtrapolation;
    train::TrainRegressor(model.get(), ds, kind, options);
    std::printf("test MSE (x 1e-2): %.4f\n",
                train::EvaluateMse(model.get(), ds.test, kind, 0.3, 17));
  }
  const std::string save = FlagOr(flags, "save", "");
  if (!save.empty()) {
    auto out_params = model->Params();
    if (!nn::SaveParams(out_params, save)) {
      std::fprintf(stderr, "cannot save weights to %s\n", save.c_str());
      return 1;
    }
    std::printf("saved weights to %s\n", save.c_str());
  }
  return 0;
}

// Forward-only serving: reload a checkpoint into a frozen model and predict
// each series at the requested times through core::BatchPredictor,
// tape-free.
int RunPredict(const Flags& flags) {
  const std::string path = FlagOr(flags, "data", "");
  const std::string load = FlagOr(flags, "load", "");
  const std::string at = FlagOr(flags, "at", "");
  if (path.empty() || load.empty() || at.empty()) return Usage();
  std::vector<Scalar> times;
  std::string error;
  if (!ParseTimes(at, &times, &error)) {
    std::fprintf(stderr, "bad --at: %s\n", error.c_str());
    return 1;
  }
  Index channels = 0;
  Index exec_batch = 0;
  if (!NumericFlag<Index>(flags, "channels", 1, 1, kMaxWidth, &channels) ||
      !NumericFlag<Index>(flags, "batch", 1, 1, kMaxWidth, &exec_batch))
    return 1;
  auto model = MakeCliModel(flags, channels, /*num_classes=*/2);
  if (model == nullptr) return 1;
  auto series = data::LoadCsv(path, channels, /*labels=*/false, &error);
  if (series.empty()) {
    std::fprintf(stderr, "load failed: %s\n", error.c_str());
    return 1;
  }

  auto params = model->Params();
  if (!nn::LoadParams(&params, load)) {
    std::fprintf(stderr,
                 "cannot load weights from %s (architecture mismatch?)\n",
                 load.c_str());
    return 1;
  }
  const std::string precision_name = FlagOr(flags, "precision", "f64");
  if (precision_name != "f64" && precision_name != "f32") {
    std::fprintf(stderr, "unknown --precision=%s (f64|f32)\n",
                 precision_name.c_str());
    return 1;
  }
  const Precision precision =
      precision_name == "f32" ? Precision::kF32 : Precision::kF64;
  model->Freeze(precision);

  // Models need at least two observations to encode a context; shorter
  // series are skipped, and named.
  const auto servable = [&series](std::size_t i) {
    if (series[i].length() >= 2) return true;
    std::fprintf(stderr,
                 "series %zu skipped: %lld observation(s), need at least 2\n",
                 i, static_cast<long long>(series[i].length()));
    return false;
  };
  const auto print_row = [&times](std::size_t series_idx,
                                  const std::vector<Tensor>& preds) {
    std::printf("series %zu:", series_idx);
    for (std::size_t k = 0; k < preds.size(); ++k) {
      std::printf("  t=%.3f ->", times[k]);
      const Tensor& row = preds[k];
      for (Index j = 0; j < row.cols(); ++j)
        std::printf(" %.4f", row.at(0, j));
    }
    std::printf("\n");
  };

  // Micro-batched serving: up to --batch sequences per forward, through
  // DIFFODE's lockstep engine (at either precision) or a baseline's
  // per-sequence loop. At --batch=1 the engine runs at B = 1, which is
  // bitwise the per-sequence path.
  core::BatchPredictor predictor(model.get(), exec_batch);
  std::vector<std::pair<std::size_t, Index>> requests;
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (!servable(i)) continue;
    requests.emplace_back(i, predictor.Enqueue(series[i], times));
  }
  predictor.Flush();
  for (const auto& [i, id] : requests)
    print_row(i, predictor.result(id).predictions);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  auto flags = ParseFlags(argc, argv, 2);
  if (command == "generate") return RunGenerate(flags);
  if (command == "train") return RunTrain(flags);
  if (command == "predict") return RunPredict(flags);
  if (command == "models") {
    std::printf("DIFFODE\n");
    for (const auto& name : diffode::baselines::BaselineNames())
      std::printf("%s\n", name.c_str());
    return 0;
  }
  return Usage();
}
