// Measurement binary behind perfbench/run.py. Runs one workload for one
// seed in a single process with one closed-loop client and writes the raw
// record (samples, values, spans) as one JSON line on stdout; run.py builds
// this binary, runs it and turns the record into the benchmark's metrics.
//
//   diffode_perfbench --workload=<name> --seed=<n> --seconds=<s>
//                     --trace=<0|1> --workdir=<dir>

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "core/parallel.h"
#include "tensor/simd.h"
#include "workloads.h"

namespace diffode::perfbench {
namespace {

// Pool threads per workload, at most nproc. Serving gained nothing from more
// than one thread in a one-client loop; training shards each minibatch.
int PoolThreads(const std::string& workload) {
  const int want = workload.rfind("train-", 0) == 0 ? 2 : 1;
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  return nproc > 0 && nproc < want ? nproc : want;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "bad argument %s\n", arg.c_str());
      return 2;
    }
    flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
  RunOptions options;
  options.workload = flags["workload"];
  options.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  options.seconds = std::atof(flags["seconds"].c_str());
  options.workdir = flags["workdir"];
  if (options.workload.empty() || options.seconds <= 0.0 ||
      options.workdir.empty()) {
    std::fprintf(stderr,
                 "usage: diffode_perfbench --workload=<name> --seed=<n> "
                 "--seconds=<s> --trace=<0|1> --workdir=<dir>\n");
    return 2;
  }

  const int threads = PoolThreads(options.workload);
  parallel::ThreadPool::SetNumThreads(threads);
  Recorder rec(flags["trace"] == "1");
  rec.SetMeta("isa", simd::IsaName(simd::ActiveIsa()));
  rec.SetMeta("pool_threads",
              std::to_string(parallel::ThreadPool::Get().num_threads()));
  rec.SetMeta("nproc", std::to_string(std::thread::hardware_concurrency()));
  rec.SetMeta("build_type", DIFFODE_PERFBENCH_BUILD_TYPE);

  const int status = options.workload.rfind("train-", 0) == 0
                         ? RunTrain(options, &rec)
                         : RunServe(options, &rec);
  if (status == 2) {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  if (status != 0) return status;

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  rec.Set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  rec.WriteJson(stdout);
  return 0;
}

}  // namespace
}  // namespace diffode::perfbench

int main(int argc, char** argv) {
  return diffode::perfbench::Main(argc, argv);
}
