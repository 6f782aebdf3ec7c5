#ifndef DIFFODE_PERFBENCH_WORKLOADS_H_
#define DIFFODE_PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "core/alloc_stats.h"
#include "core/config.h"
#include "recorder.h"

namespace diffode::perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string workdir;  // checkpoint and request CSV files go here
};

// Each returns 0 when the workload ran (its outputs may still have failed
// their checks: that is recorded in `rec`), non-zero when it could not run.
int RunServe(const RunOptions& options, Recorder* rec);
int RunTrain(const RunOptions& options, Recorder* rec);

// Runs `setup(rep)` at least 3 times and until 1 s of set-up has
// accumulated (at most 15 times), recording each duration as a setup_s
// sample; setup_s is their median. Work moved into set-up shows, no single
// slow repetition decides the value, and a set-up of a few milliseconds
// gets enough repetitions to be steady. Returns false if a set-up failed.
template <typename SetupFn>
bool RepeatSetup(Recorder* rec, const SetupFn& setup) {
  double total = 0.0;
  for (int rep = 0; rep < 15 && (rep < 3 || total < 1.0); ++rep) {
    const auto start = std::chrono::steady_clock::now();
    if (!setup(rep)) return false;
    const double seconds = SecondsSince(start);
    rec->Sample("setup_s", seconds);
    total += seconds;
  }
  return true;
}

// Seed of what stays the same across runs: the served checkpoint and the
// training workload's stations and initial weights.
inline constexpr std::uint64_t kFixedSeed = 7;

// Records an AllocStats delta over `seqs` sequences as per-sequence samples
// of the tensor pool and tape arena counters.
inline void SampleAllocStats(Recorder* rec,
                             const core::AllocStats::Snapshot& delta,
                             Index seqs) {
  const auto per_seq = [seqs](std::uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(seqs);
  };
  rec->Sample("tensor.pool_hits", per_seq(delta.pool_hits));
  rec->Sample("tensor.pool_misses", per_seq(delta.pool_misses));
  rec->Sample("tensor.pool_bypass", per_seq(delta.pool_bypass));
  rec->Sample("autograd.value_only_vars", per_seq(delta.value_only_vars));
  rec->Sample("autograd.arena_nodes", per_seq(delta.arena_nodes));
  rec->Sample("autograd.arena_bytes", per_seq(delta.arena_bytes));
}

// splitmix64: derives independent sub-seeds (dataset, model, queries) from
// the one --seed, so each workload input stream depends on the seed alone.
inline std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// The DIFFODE configuration every workload uses: the bench harness's
// single-core sizing (bench/bench_common.h MakeModel) at solver step 1.0,
// the step of the Table V and serving benches.
inline core::DiffOdeConfig ModelConfig(Index input_dim, std::uint64_t seed) {
  core::DiffOdeConfig config;
  config.input_dim = input_dim;
  config.latent_dim = 16;
  config.hippo_dim = 12;
  config.info_dim = 12;
  config.step = 1.0;
  config.seed = seed;
  return config;
}

}  // namespace diffode::perfbench

#endif  // DIFFODE_PERFBENCH_WORKLOADS_H_
