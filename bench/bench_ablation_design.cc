// Ablation benches for this implementation's own design choices (the ones
// DESIGN.md calls out beyond the paper's Fig. 5): the DHS-definition
// consistency term, the unrolled solver scheme, the HiPPO timescale that
// keeps Eq. 36 non-stiff, and the Gram-matrix ridge in the attention
// inversion. Each row trains DIFFODE on USHCN-like extrapolation and
// reports the mean ± std of the test MSE over `--seeds N` runs.
//
//   bench_ablation_design [--csv] [--seeds N]

#include "bench_common.h"
#include "ode/diff_integrator.h"

namespace diffode::bench {
namespace {

struct Variant {
  const char* name;
  Scalar consistency_weight = 0.1;
  ode::DiffMethod method = ode::DiffMethod::kMidpoint;
  Scalar hippo_timescale = 0.0;  // 0 = auto
  Scalar ridge = 1e-6;
};

const Variant kVariants[] = {
    {"default"},
    {"consistency=0", 0.0},
    {"consistency=0.05", 0.05},
    {"consistency=0.3", 0.3},
    {"solver=euler", 0.1, ode::DiffMethod::kEuler},
    {"solver=rk4", 0.1, ode::DiffMethod::kRk4},
    {"hippo-tau=1(stiff)", 0.1, ode::DiffMethod::kMidpoint, 1.0},
    {"hippo-tau=24", 0.1, ode::DiffMethod::kMidpoint, 24.0},
    {"ridge=1e-8", 0.1, ode::DiffMethod::kMidpoint, 0.0, 1e-8},
    {"ridge=1e-3", 0.1, ode::DiffMethod::kMidpoint, 0.0, 1e-3},
};

// Parses `--seeds N` (default 1): each variant trains N times, run k with
// its data, init and minibatch seeds all at kSeedBase + k.
Index SeedCount(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--seeds") != 0) continue;
    char* end = nullptr;
    const long n = std::strtol(argv[i + 1], &end, 10);
    if (end == argv[i + 1] || *end != '\0' || n < 1 || n > 100) {
      std::fprintf(stderr, "bad --seeds %s: expected an integer in [1, 100]\n",
                   argv[i + 1]);
      std::exit(1);
    }
    return static_cast<Index>(n);
  }
  return 1;
}

constexpr std::uint64_t kSeedBase = 11;

int Main(int argc, char** argv) {
  const bool csv = HasFlag(argc, argv, "--csv");
  const Index seeds = SeedCount(argc, argv);
  const Index epochs = Scaled(12);
  std::vector<data::Dataset> datasets;
  for (Index k = 0; k < seeds; ++k) {
    data::UshcnLikeConfig config;
    config.num_stations = Scaled(36);
    config.num_days = 120;
    config.seed = kSeedBase + static_cast<std::uint64_t>(k);
    datasets.push_back(data::MakeUshcnLike(config));
    data::NormalizeDataset(&datasets.back());
  }

  if (csv) {
    std::printf("table,Design ablations (%lld seeds)\n"
                "variant,extrap_mse_mean,extrap_mse_std,s_per_epoch\n",
                static_cast<long long>(seeds));
  } else {
    std::printf("\n=== Design-choice ablations (USHCN-like extrapolation, "
                "%lld seeds) ===\n",
                static_cast<long long>(seeds));
    std::printf("%-22s %22s %12s\n", "variant", "extrap MSE (mean +/- std)",
                "s/epoch");
  }
  for (const Variant& variant : kVariants) {
    std::vector<Scalar> mses;
    Scalar seconds = 0.0;
    for (Index k = 0; k < seeds; ++k) {
      const data::Dataset& ds = datasets[static_cast<std::size_t>(k)];
      const std::uint64_t seed = kSeedBase + static_cast<std::uint64_t>(k);
      core::DiffOdeConfig mconfig;
      mconfig.input_dim = ds.num_features;
      mconfig.latent_dim = 32;
      mconfig.hippo_dim = 12;
      mconfig.info_dim = 12;
      mconfig.step = 0.5;
      mconfig.consistency_weight = variant.consistency_weight;
      mconfig.hippo_timescale = variant.hippo_timescale;
      mconfig.ridge = variant.ridge;
      mconfig.seed = seed;
      core::DiffOde model(mconfig);
      model.set_diff_method(variant.method);
      RegResult result =
          RunRegression(&model, ds, train::RegressionTask::kExtrapolation,
                        epochs, -1, -1, seed);
      mses.push_back(result.mse);
      seconds += result.seconds_per_epoch;
      std::fprintf(stderr, "[ablation] %s seed %llu: mse %.4f\n",
                   variant.name, static_cast<unsigned long long>(seed),
                   result.mse);
    }
    const MeanStd mse = Summarize(mses);
    seconds /= static_cast<Scalar>(seeds);
    if (csv) {
      std::printf("%s,%.4f,%.4f,%.4f\n", variant.name, mse.mean, mse.stddev,
                  seconds);
    } else {
      std::printf("%-22s %11.4f +/- %-7.4f %12.3f\n", variant.name,
                  mse.mean, mse.stddev, seconds);
    }
  }
  return 0;
}

}  // namespace
}  // namespace diffode::bench

int main(int argc, char** argv) { return diffode::bench::Main(argc, argv); }
