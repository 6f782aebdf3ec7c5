// Reproduces Fig. 3: sparsity of the recovered attention weights p_t under
// the three strategies. The paper shows gray-scale maps; this bench prints
// the scalar summaries behind them — the Hoyer metric and the effective
// support (how many observations carry 90% of the attention mass) averaged
// over the DHS trajectory — plus an ASCII rendition of one attention map.

#include <cmath>

#include "bench_common.h"
#include "core/dhs.h"
#include "sparsity/hoyer.h"

namespace diffode::bench {
namespace {

int Main(int argc, char** argv) {
  const bool csv = HasFlag(argc, argv, "--csv");
  // A briefly-trained DIFFODE on the USHCN-like interpolation task supplies
  // realistic latent matrices Z and hidden states S.
  data::UshcnLikeConfig config;
  config.num_stations = Scaled(20);
  config.num_days = 100;
  data::Dataset ds = data::MakeUshcnLike(config);
  data::NormalizeDataset(&ds);
  ModelSpec spec;
  spec.input_dim = ds.num_features;
  spec.step = 1.0;
  auto model_owner = MakeModel("DIFFODE", spec);
  auto* model = static_cast<core::DiffOde*>(model_owner.get());
  RunRegression(model, ds, train::RegressionTask::kInterpolation, Scaled(4));

  struct Stats {
    Scalar hoyer = 0.0;
    Scalar support = 0.0;
    Index count = 0;
  };
  Stats stats[3];
  const char* names[3] = {"maxHoyer", "minNorm", "adaH"};
  const sparsity::PtStrategy strategies[3] = {
      sparsity::PtStrategy::kMaxHoyer, sparsity::PtStrategy::kMinNorm,
      sparsity::PtStrategy::kAdaH};

  // Each context's inversion is the model's own: Z from LatentZ, the
  // factorization from BuildDhsContext at the model's ridge, S at every
  // observation from DhsForward, and p from the dhs.h kernel.
  ag::NoGradScope no_grad;
  Rng rng(3);
  std::vector<std::vector<Tensor>> first_maps(3);
  const Index eval_series = std::min<Index>(8, ds.test.size());
  for (Index si = 0; si < eval_series; ++si) {
    const auto& series = ds.test[static_cast<std::size_t>(si)];
    if (series.length() < 6) continue;
    Tensor z = model->LatentZ(series);
    core::DhsContext ctx =
        core::BuildDhsContext(ag::Constant(z), model->config().ridge);
    core::CacheAdaHCorrection(
        &ctx, ag::Constant(rng.NormalTensor(Shape{1, ctx.n})));
    const core::DhsView<Scalar> view = core::ViewOf(ctx);
    for (Index i = 0; i < ctx.n; ++i) {
      Tensor s = core::DhsForward(ctx, ag::Constant(z.Row(i))).value();
      for (int k = 0; k < 3; ++k) {
        Tensor p = Tensor::Uninit(Shape{1, ctx.n});
        core::RecoverP(view, s.data(), strategies[k], p.data());
        stats[k].hoyer += sparsity::HoyerAbs(p);
        stats[k].support += static_cast<Scalar>(
            sparsity::EffectiveSupport(p));
        stats[k].count += 1;
        if (si == 0) first_maps[static_cast<std::size_t>(k)].push_back(p);
      }
    }
  }

  if (csv) {
    std::printf("table,Fig 3: attention sparsity\n");
    std::printf("strategy,mean_hoyer,mean_effective_support\n");
  } else {
    std::printf("\n=== Fig. 3: sparsity of recovered p_t ===\n");
    std::printf("%-12s %14s %22s\n", "strategy", "mean Hoyer",
                "mean 90pct support");
  }
  for (int k = 0; k < 3; ++k) {
    const Scalar n = std::max<Scalar>(stats[k].count, 1);
    if (csv) {
      std::printf("%s,%.4f,%.2f\n", names[k], stats[k].hoyer / n,
                  stats[k].support / n);
    } else {
      std::printf("%-12s %14.4f %22.2f\n", names[k], stats[k].hoyer / n,
                  stats[k].support / n);
    }
  }
  if (!csv) {
    // ASCII gray-scale maps (darker = larger |p|), one row per time point.
    const char* shades = " .:-=+*#%@";
    for (int k = 0; k < 3; ++k) {
      std::printf("\n--- attention map, %s (rows: query times; cols: "
                  "observations) ---\n",
                  names[k]);
      for (const auto& p : first_maps[static_cast<std::size_t>(k)]) {
        Scalar maxv = 1e-12;
        for (Index i = 0; i < p.numel(); ++i)
          maxv = std::max(maxv, std::fabs(p[i]));
        for (Index i = 0; i < p.numel(); ++i) {
          const int level = static_cast<int>(
              std::round(std::fabs(p[i]) / maxv * 9.0));
          std::putchar(shades[std::clamp(level, 0, 9)]);
        }
        std::putchar('\n');
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace diffode::bench

int main(int argc, char** argv) { return diffode::bench::Main(argc, argv); }
