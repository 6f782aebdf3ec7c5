// Single-sequence inference latency: per-forward p50/p95 and sustained
// sequences/sec for DIFFODE and three baselines, with the tape on (the
// training-shape forward, arena-backed) and off (ag::NoGradScope). The
// no-grad column is what a serving deployment pays; the ratio is the cost
// of building the backward graph nobody uses at eval time.
//
// A second table sweeps the lockstep execution batch (core/batched_model.h)
// over B in {1, 4, 16, 32, 64} for the natively batched models, reporting
// sustained seqs/sec plus p50/p95 per *request* (one request = one batch,
// union-grid construction included).

#include <algorithm>
#include <memory>
#include <vector>

#include "autograd/arena.h"
#include "bench_common.h"
#include "core/batched_model.h"
#include "data/sequence_batch.h"
#include "tensor/buffer_pool.h"
#include "tensor/simd.h"

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

// Models with a native lockstep engine; the sweep measures the engine, not
// the BatchedDispatch fallback loop.
constexpr const char* kBatchedModels[] = {"DIFFODE", "GRU-D", "ODE-RNN"};
constexpr Index kBatchSizes[] = {1, 4, 16, 32, 64};

// Times classification requests of B sequences each, cycling through the
// split (a batch may repeat a sequence when B exceeds the split). The
// SequenceBatch view is built inside the timed region — serving pays it.
LatencyStats MeasureBatched(core::BatchedDispatch* dispatch,
                            const std::vector<data::IrregularSeries>& split,
                            Index batch, Index requests) {
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(requests));
  ag::TapeArena::Scope arena_scope;
  tensor::BufferPool::Scope pool_scope;
  std::size_t cursor = 0;
  const auto next_batch = [&]() {
    std::vector<const data::IrregularSeries*> ptrs;
    ptrs.reserve(static_cast<std::size_t>(batch));
    for (Index j = 0; j < batch; ++j)
      ptrs.push_back(&split[cursor++ % split.size()]);
    return ptrs;
  };
  for (Index i = 0; i < 2; ++i) {
    (void)dispatch->ClassifyLogitsBatched(data::MakeSequenceBatch(next_batch()));
    ag::TapeArena::ThreadLocal().Reset();
  }
  train::WallTimer total;
  for (Index i = 0; i < requests; ++i) {
    const auto ptrs = next_batch();
    train::WallTimer t;
    (void)dispatch->ClassifyLogitsBatched(data::MakeSequenceBatch(ptrs));
    ms.push_back(t.Seconds() * 1000.0);
    ag::TapeArena::ThreadLocal().Reset();
  }
  LatencyStats out;
  out.p50_ms = Percentile(ms, 0.50);
  out.p95_ms = Percentile(ms, 0.95);
  out.seqs_per_sec =
      static_cast<double>(requests * batch) / total.Seconds();
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

  if (csv) {
    std::printf(
        "table,Batched execution\nmodel,batch,seqs_per_sec,p50_ms,p95_ms\n");
  } else {
    std::printf("\n=== Batched lockstep execution (classification) ===\n");
    std::printf("%-16s %6s %12s %14s %14s\n", "model", "batch", "seqs/sec",
                "req p50", "req p95");
  }
  for (const char* name : kBatchedModels) {
    ModelSpec spec;
    spec.input_dim = ds.num_features;
    spec.step = 1.0;
    auto model = MakeModel(name, spec);
    core::BatchedDispatch dispatch(model.get());
    for (Index batch : kBatchSizes) {
      const Index requests = std::max<Index>(16, repeats / batch);  // floor: stable p50/p95 at large B
      const LatencyStats stats =
          MeasureBatched(&dispatch, ds.test, batch, requests);
      if (csv) {
        std::printf("%s,%lld,%.1f,%.3f,%.3f\n", name,
                    static_cast<long long>(batch), stats.seqs_per_sec,
                    stats.p50_ms, stats.p95_ms);
      } else {
        std::printf("%-16s %6lld %12.1f %12.3fms %12.3fms\n", name,
                    static_cast<long long>(batch), stats.seqs_per_sec,
                    stats.p50_ms, stats.p95_ms);
      }
    }
  }
  // Serving precision sweep: the same DIFFODE weights frozen at f64 vs f32
  // (LockstepEngine<float> vs <double>), across the lockstep batch sizes. ISA
  // and precision columns let the perf trajectory distinguish
  // f32-vs-f64 and avx2-vs-avx512 rows (scripts/bench_report.sh).
  const char* isa_name = simd::IsaName(simd::ActiveIsa());
  if (csv) {
    std::printf(
        "table,Serving precision sweep\n"
        "model,precision,isa,batch,seqs_per_sec,p50_ms,p95_ms\n");
  } else {
    std::printf("\n=== Serving precision sweep (DIFFODE, isa=%s) ===\n",
                isa_name);
    std::printf("%-10s %6s %12s %14s %14s\n", "precision", "batch",
                "seqs/sec", "req p50", "req p95");
  }
  // Batch-major, precision-minor: the f64 and f32 cells of one batch size
  // run back to back, so the pair shares the same thermal/frequency regime
  // and their ratio is meaningful even on a drifting host.
  std::vector<std::unique_ptr<core::SequenceModel>> precision_models;
  std::vector<std::unique_ptr<core::BatchedDispatch>> precision_dispatch;
  for (const Precision precision : {Precision::kF64, Precision::kF32}) {
    ModelSpec spec;
    spec.input_dim = ds.num_features;
    spec.step = 1.0;
    precision_models.push_back(MakeModel("DIFFODE", spec));
    precision_models.back()->Freeze(precision);
    precision_dispatch.push_back(std::make_unique<core::BatchedDispatch>(
        precision_models.back().get()));
  }
  for (Index batch : kBatchSizes) {
    const Index requests = std::max<Index>(16, repeats / batch);  // floor: stable p50/p95 at large B
    for (std::size_t pi = 0; pi < 2; ++pi) {
      const Precision precision = pi == 0 ? Precision::kF64 : Precision::kF32;
      const LatencyStats stats = MeasureBatched(precision_dispatch[pi].get(),
                                                ds.test, batch, requests);
      if (csv) {
        std::printf("DIFFODE,%s,%s,%lld,%.1f,%.3f,%.3f\n",
                    PrecisionName(precision), isa_name,
                    static_cast<long long>(batch), stats.seqs_per_sec,
                    stats.p50_ms, stats.p95_ms);
      } else {
        std::printf("%-10s %6lld %12.1f %12.3fms %12.3fms\n",
                    PrecisionName(precision), static_cast<long long>(batch),
                    stats.seqs_per_sec, stats.p50_ms, stats.p95_ms);
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace diffode::bench

int main(int argc, char** argv) { return diffode::bench::Main(argc, argv); }
