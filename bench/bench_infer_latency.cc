// Single-sequence inference latency: per-forward p50/p95 and sustained
// sequences/sec for DIFFODE and three baselines, with the tape on (the
// training-shape forward, arena-backed) and off (ag::NoGradScope). The
// no-grad column is what a serving deployment pays; the ratio is the cost
// of building the backward graph nobody uses at eval time. Batched serving
// at f64 and f32 is measured by perfbench/run.py on trained checkpoints.

#include <algorithm>
#include <vector>

#include "autograd/arena.h"
#include "bench_common.h"
#include "tensor/buffer_pool.h"

namespace diffode::bench {
namespace {

constexpr const char* kModels[] = {"DIFFODE", "GRU-D", "ODE-RNN",
                                   "Latent ODE"};

struct LatencyStats {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double seqs_per_sec = 0.0;
};

double Percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

// Times one ClassifyLogits per sequence, cycling through the split. Every
// forward runs under a warm arena + pool scope (reset between sequences),
// matching how the trainer's eval loop schedules work on a pool thread.
template <typename Fn>
LatencyStats Measure(const std::vector<data::IrregularSeries>& split,
                     Index repeats, const Fn& forward) {
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(repeats));
  ag::TapeArena::Scope arena_scope;
  tensor::BufferPool::Scope pool_scope;
  // Warm-up: populate the pool depot and arena blocks.
  for (Index i = 0; i < 3; ++i) {
    forward(split[static_cast<std::size_t>(i % split.size())]);
    ag::TapeArena::ThreadLocal().Reset();
  }
  train::WallTimer total;
  for (Index i = 0; i < repeats; ++i) {
    const auto& s = split[static_cast<std::size_t>(i) % split.size()];
    train::WallTimer t;
    forward(s);
    ms.push_back(t.Seconds() * 1000.0);
    ag::TapeArena::ThreadLocal().Reset();
  }
  LatencyStats out;
  out.p50_ms = Percentile(ms, 0.50);
  out.p95_ms = Percentile(ms, 0.95);
  out.seqs_per_sec = static_cast<double>(repeats) / total.Seconds();
  return out;
}

int Main(int argc, char** argv) {
  const bool csv = HasFlag(argc, argv, "--csv");
  data::UshcnLikeConfig config;
  config.num_stations = Scaled(24);
  config.num_days = 120;
  data::Dataset ds = data::MakeUshcnLike(config);
  data::NormalizeDataset(&ds);
  const Index repeats = Scaled(60);

  if (csv) {
    std::printf(
        "table,Inference latency\nmodel,grad_p50_ms,grad_p95_ms,"
        "nograd_p50_ms,nograd_p95_ms,nograd_seqs_per_sec,speedup\n");
  } else {
    std::printf("\n=== Single-sequence inference latency ===\n");
    std::printf("%-16s %12s %12s %12s %12s %12s %9s\n", "model",
                "grad p50", "grad p95", "nograd p50", "nograd p95",
                "seqs/sec", "speedup");
  }
  for (const char* name : kModels) {
    ModelSpec spec;
    spec.input_dim = ds.num_features;
    spec.step = 1.0;
    auto model = MakeModel(name, spec);
    auto forward = [&](const data::IrregularSeries& s) {
      (void)model->TakeAuxiliaryLoss();
      (void)model->ClassifyLogits(s);
      (void)model->TakeAuxiliaryLoss();
    };
    const LatencyStats grad = Measure(ds.test, repeats, forward);
    const LatencyStats nograd = Measure(ds.test, repeats,
                                        [&](const data::IrregularSeries& s) {
                                          ag::NoGradScope no_grad;
                                          forward(s);
                                        });
    const double speedup =
        nograd.p50_ms > 0.0 ? grad.p50_ms / nograd.p50_ms : 0.0;
    if (csv) {
      std::printf("%s,%.3f,%.3f,%.3f,%.3f,%.1f,%.2f\n", name, grad.p50_ms,
                  grad.p95_ms, nograd.p50_ms, nograd.p95_ms,
                  nograd.seqs_per_sec, speedup);
    } else {
      std::printf("%-16s %10.3fms %10.3fms %10.3fms %10.3fms %12.1f %8.2fx\n",
                  name, grad.p50_ms, grad.p95_ms, nograd.p50_ms,
                  nograd.p95_ms, nograd.seqs_per_sec, speedup);
    }
  }
  return 0;
}

}  // namespace
}  // namespace diffode::bench

int main(int argc, char** argv) { return diffode::bench::Main(argc, argv); }
