// google-benchmark micro-benchmarks for the numeric substrates: tensor
// algebra, pseudoinverses, the DHS derivative, the attention inversion and
// the DIFFODE right-hand side. These quantify the per-step costs behind the
// complexity rows of Table V.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "autograd/arena.h"
#include "autograd/ops.h"
#include "core/config.h"
#include "core/dhs.h"
#include "core/diffode_model.h"
#include "core/parallel.h"
#include "data/sequence_batch.h"
#include "linalg/pinv.h"
#include "nn/gru.h"
#include "sparsity/pt_solver.h"
#include "tensor/buffer_pool.h"
#include "tensor/kernels.h"
#include "tensor/random.h"
#include "tensor/simd.h"

namespace diffode {
namespace {

void BM_MatMul(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(1);
  Tensor a = rng.NormalTensor(Shape{n, n});
  Tensor b = rng.NormalTensor(Shape{n, n});
  for (auto _ : state) benchmark::DoNotOptimize(a.MatMul(b));
  state.SetComplexityN(n);
}
BENCHMARK(BM_MatMul)->Arg(16)->Arg(64)->Arg(128)->Arg(256)->Complexity();

// The seed repository's unblocked triple loop, kept verbatim as the yardstick
// for the blocked/unrolled kernels::Gemm (the ratio BM_MatMul / BM_GemmNaive
// at equal n is the kernel speedup).
void BM_GemmNaive(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(1);
  Tensor a = rng.NormalTensor(Shape{n, n});
  Tensor b = rng.NormalTensor(Shape{n, n});
  for (auto _ : state) {
    Tensor out(Shape{n, n});
    for (Index i = 0; i < n; ++i) {
      for (Index p = 0; p < n; ++p) {
        const Scalar aip = a.at(i, p);
        if (aip == 0.0) continue;
        for (Index j = 0; j < n; ++j) out.at(i, j) += aip * b.at(p, j);
      }
    }
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmTN(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(1);
  Tensor a = rng.NormalTensor(Shape{n, n});
  Tensor b = rng.NormalTensor(Shape{n, n});
  for (auto _ : state) benchmark::DoNotOptimize(a.TransposedMatMul(b));
}
BENCHMARK(BM_GemmTN)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmNT(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(1);
  Tensor a = rng.NormalTensor(Shape{n, n});
  Tensor b = rng.NormalTensor(Shape{n, n});
  for (auto _ : state) benchmark::DoNotOptimize(a.MatMulTransposed(b));
}
BENCHMARK(BM_GemmNT)->Arg(64)->Arg(128)->Arg(256);

// Fused templated-functor elementwise map.
void BM_FusedElementwise(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(1);
  Tensor x = rng.NormalTensor(Shape{n});
  Tensor out(Shape{n});
  for (auto _ : state) {
    kernels::Map(n, x.data(), out.data(),
                 [](Scalar v) { return v * v + 1.0; });
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FusedElementwise)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 20);

// ParallelFor scaling over the thread-count axis (Arg = pool size). The work
// is a chunked saxpy large enough to dwarf the dispatch overhead.
void BM_ParallelFor(benchmark::State& state) {
  parallel::ThreadPool::SetNumThreads(static_cast<int>(state.range(0)));
  const Index n = 1 << 22;
  Rng rng(1);
  Tensor x = rng.NormalTensor(Shape{n});
  Tensor y = rng.NormalTensor(Shape{n});
  for (auto _ : state) {
    parallel::ParallelFor(0, n, kernels::kElementwiseGrain,
                          [&](Index b, Index e) {
                            Scalar* yp = y.data();
                            const Scalar* xp = x.data();
                            for (Index i = b; i < e; ++i)
                              yp[i] += 0.5 * xp[i];
                          });
    benchmark::DoNotOptimize(y);
  }
  parallel::ThreadPool::SetNumThreads(0);
}
BENCHMARK(BM_ParallelFor)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_PInverseSvd(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(2);
  Tensor a = rng.NormalTensor(Shape{n, n / 4});
  for (auto _ : state) benchmark::DoNotOptimize(linalg::PInverse(a));
}
BENCHMARK(BM_PInverseSvd)->Arg(32)->Arg(64)->Arg(128);

// The model's default Gram ridge.
const Scalar kRidge = core::DiffOdeConfig{}.ridge;

// The model's per-sequence factorization, value-only as in serving.
void BM_BuildDhsContext(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(6);
  ag::Var z = ag::Constant(rng.NormalTensor(Shape{n, 16}));
  ag::NoGradScope no_grad;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::BuildDhsContext(z, kRidge));
}
BENCHMARK(BM_BuildDhsContext)->Arg(32)->Arg(128)->Arg(512);

void BM_RecoverPMaxHoyer(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(7);
  ag::NoGradScope no_grad;
  core::DhsContext ctx = core::BuildDhsContext(
      ag::Constant(rng.NormalTensor(Shape{n, 16})), kRidge);
  const core::DhsView<Scalar> view = core::ViewOf(ctx);
  Tensor s = rng.NormalTensor(Shape{1, 16});
  Tensor p(Shape{1, n});
  for (auto _ : state) {
    core::RecoverP(view, s.data(), sparsity::PtStrategy::kMaxHoyer, p.data());
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_RecoverPMaxHoyer)->Arg(32)->Arg(128)->Arg(512)->Arg(2048);

// Theorem 1 vs Theorem 2: the exact KKT search is exponential while the
// relaxed closed form is linear — the paper's complexity claim.
void BM_ExactKktSmallN(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(8);
  Tensor z = rng.NormalTensor(Shape{n, 3});
  ag::NoGradScope no_grad;
  core::DhsContext ctx = core::BuildDhsContext(ag::Constant(z), kRidge);
  Tensor s = rng.NormalTensor(Shape{1, 3});
  for (auto _ : state)
    benchmark::DoNotOptimize(
        sparsity::MaxHoyerExactKkt(z, ctx.zt_pinv.value(), s));
}
BENCHMARK(BM_ExactKktSmallN)->Arg(6)->Arg(10)->Arg(14);

// A ~64-op tape chain (the shape of one unrolled integrator sweep), built
// and torn down once per iteration. The heap variant allocates every node
// with make_shared and every tensor with operator new; the arena/pool
// variant bump-allocates nodes and recycles tensor buffers. The ratio is
// the allocation overhead removed from each training step.
void RunTapeChain(Index width, Index ops) {
  Rng rng(10);
  ag::Var h = ag::Constant(rng.NormalTensor(Shape{1, width}));
  ag::Var c = ag::Constant(rng.NormalTensor(Shape{1, width}));
  for (Index i = 0; i < ops; ++i) h = ag::Tanh(ag::Add(ag::Mul(h, c), h));
  benchmark::DoNotOptimize(h.value());
}

void BM_TapeUnrollHeap(benchmark::State& state) {
  const Index width = state.range(0);
  for (auto _ : state) RunTapeChain(width, 64);
}
BENCHMARK(BM_TapeUnrollHeap)->Arg(16)->Arg(64);

void BM_TapeUnrollArenaPool(benchmark::State& state) {
  const Index width = state.range(0);
  for (auto _ : state) {
    ag::TapeArena::Scope arena_scope;
    tensor::BufferPool::Scope pool_scope;
    RunTapeChain(width, 64);
    ag::TapeArena::ThreadLocal().Reset();
  }
}
BENCHMARK(BM_TapeUnrollArenaPool)->Arg(16)->Arg(64);

// Raw buffer churn: allocate/free a batch of same-sized tensors, heap vs
// warm pool.
void RunTensorChurn(Index n) {
  for (int k = 0; k < 32; ++k) {
    Tensor t = Tensor::Uninit(Shape{n});
    t.data()[0] = static_cast<Scalar>(k);
    benchmark::DoNotOptimize(t);
  }
}

void BM_TensorAllocHeap(benchmark::State& state) {
  const Index n = state.range(0);
  for (auto _ : state) RunTensorChurn(n);
}
BENCHMARK(BM_TensorAllocHeap)->Arg(1 << 8)->Arg(1 << 14);

void BM_TensorAllocPooled(benchmark::State& state) {
  const Index n = state.range(0);
  tensor::BufferPool::Scope scope;
  for (auto _ : state) RunTensorChurn(n);
}
BENCHMARK(BM_TensorAllocPooled)->Arg(1 << 8)->Arg(1 << 14);

// ---- Kernel ISA sweep ------------------------------------------------------
// Scalar vs AVX2 vs AVX-512 backend on the GEMM shapes the model actually
// runs (Table V workloads): GRU gate projections, MLP heads, attention
// score/backward products, plus the vectorized transcendental maps. Arg 0
// picks the ISA (0 = scalar, 1 = avx2, 2 = avx512); rows for an ISA the host
// or build lacks are skipped.

simd::Isa IsaArg(benchmark::State& state) {
  switch (state.range(0)) {
    case 0: return simd::Isa::kScalar;
    case 1: return simd::Isa::kAvx2;
    default: return simd::Isa::kAvx512;
  }
}

// Sets the requested ISA for the benchmark body; restores on destruction.
struct BenchIsaScope {
  explicit BenchIsaScope(benchmark::State& state)
      : prev(simd::ActiveIsa()), ok(simd::SetActiveIsa(IsaArg(state))) {
    if (!ok) state.SkipWithError("ISA not supported on this host/build");
    state.SetLabel(simd::IsaName(IsaArg(state)));
  }
  ~BenchIsaScope() { simd::SetActiveIsa(prev); }
  simd::Isa prev;
  bool ok;
};

void BM_GemmIsa(benchmark::State& state) {
  BenchIsaScope isa(state);
  if (!isa.ok) return;
  const Index m = state.range(1), k = state.range(2), n = state.range(3);
  Rng rng(20);
  Tensor a = rng.NormalTensor(Shape{m, k});
  Tensor b = rng.NormalTensor(Shape{k, n});
  Tensor c(Shape{m, n});
  for (auto _ : state) {
    kernels::Gemm(m, k, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_GemmIsa)
    ->ArgNames({"isa", "m", "k", "n"})
    ->Args({0, 1, 64, 192})      // GRU gate projection, one observation
    ->Args({1, 1, 64, 192})
    ->Args({2, 1, 64, 192})
    ->Args({0, 32, 64, 192})     // GRU gates, batched encoder sweep
    ->Args({1, 32, 64, 192})
    ->Args({2, 32, 64, 192})
    ->Args({0, 32, 64, 64})      // MLP head layer
    ->Args({1, 32, 64, 64})
    ->Args({2, 32, 64, 64})
    ->Args({0, 128, 128, 128})   // square reference point
    ->Args({1, 128, 128, 128})
    ->Args({2, 128, 128, 128});

void BM_GemmTNIsa(benchmark::State& state) {
  BenchIsaScope isa(state);
  if (!isa.ok) return;
  const Index m = state.range(1), k = state.range(2), n = state.range(3);
  Rng rng(21);
  Tensor a = rng.NormalTensor(Shape{k, m});  // A stored transposed
  Tensor b = rng.NormalTensor(Shape{k, n});
  Tensor c(Shape{m, n});
  for (auto _ : state) {
    kernels::GemmTN(m, k, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_GemmTNIsa)
    ->ArgNames({"isa", "m", "k", "n"})
    ->Args({0, 64, 128, 64})     // xᵀ·g weight-gradient shape
    ->Args({1, 64, 128, 64})
    ->Args({2, 64, 128, 64})
    ->Args({0, 128, 128, 128})
    ->Args({1, 128, 128, 128})
    ->Args({2, 128, 128, 128});

void BM_GemmNTIsa(benchmark::State& state) {
  BenchIsaScope isa(state);
  if (!isa.ok) return;
  const Index m = state.range(1), k = state.range(2), n = state.range(3);
  Rng rng(22);
  Tensor a = rng.NormalTensor(Shape{m, k});
  Tensor b = rng.NormalTensor(Shape{n, k});  // B stored transposed
  Tensor c(Shape{m, n});
  for (auto _ : state) {
    kernels::GemmNT(m, k, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_GemmNTIsa)
    ->ArgNames({"isa", "m", "k", "n"})
    ->Args({0, 128, 32, 128})    // attention scores z·zᵀ, d=32
    ->Args({1, 128, 32, 128})
    ->Args({2, 128, 32, 128})
    ->Args({0, 128, 64, 128})    // attention scores, d=64
    ->Args({1, 128, 64, 128})
    ->Args({2, 128, 64, 128});

void BM_MapTanhIsa(benchmark::State& state) {
  BenchIsaScope isa(state);
  if (!isa.ok) return;
  const Index n = state.range(1);
  Rng rng(23);
  Tensor x = rng.NormalTensor(Shape{n});
  Tensor out(Shape{n});
  for (auto _ : state) {
    kernels::MapTanh(n, x.data(), out.data());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_MapTanhIsa)
    ->ArgNames({"isa", "n"})
    ->Args({0, 1 << 12})
    ->Args({1, 1 << 12})
    ->Args({2, 1 << 12})
    ->Args({0, 1 << 16})
    ->Args({1, 1 << 16})
    ->Args({2, 1 << 16});

void BM_MapExpIsa(benchmark::State& state) {
  BenchIsaScope isa(state);
  if (!isa.ok) return;
  const Index n = state.range(1);
  Rng rng(24);
  Tensor x = rng.NormalTensor(Shape{n});
  Tensor out(Shape{n});
  for (auto _ : state) {
    kernels::MapExp(n, x.data(), out.data());
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_MapExpIsa)
    ->ArgNames({"isa", "n"})
    ->Args({0, 1 << 12})
    ->Args({1, 1 << 12})
    ->Args({2, 1 << 12})
    ->Args({0, 1 << 16})
    ->Args({1, 1 << 16})
    ->Args({2, 1 << 16});

// Row movement for the lockstep batched engine: the SelectRows/ScatterRows
// gather-scatter pair at serving batch shapes (rows = execution batch,
// cols = packed state dim).
void BM_SelectScatterRowsIsa(benchmark::State& state) {
  BenchIsaScope isa(state);
  if (!isa.ok) return;
  const Index rows = state.range(1), cols = state.range(2);
  Rng rng(26);
  Tensor pool = rng.NormalTensor(Shape{rows * 2, cols});
  Tensor packed(Shape{rows, cols});
  std::vector<Index> idx(static_cast<std::size_t>(rows));
  for (Index r = 0; r < rows; ++r) idx[static_cast<std::size_t>(r)] = 2 * r;
  for (auto _ : state) {
    kernels::SelectRows(rows, cols, idx.data(), pool.data(), packed.data());
    kernels::ScatterRows(rows, cols, idx.data(), packed.data(), pool.data());
    benchmark::DoNotOptimize(pool);
  }
}
BENCHMARK(BM_SelectScatterRowsIsa)
    ->ArgNames({"isa", "rows", "cols"})
    ->Args({0, 32, 48})
    ->Args({1, 32, 48})
    ->Args({2, 32, 48})
    ->Args({0, 256, 128})
    ->Args({1, 256, 128})
    ->Args({2, 256, 128});

// One head's Eq. 12 derivative: the Derivative kernel of core/dhs.h that
// the DIFFODE RHS runs per row and head.
void BM_DhsDerivative(benchmark::State& state) {
  const Index n = state.range(0);
  const Index d = 16;
  Rng rng(9);
  ag::NoGradScope no_grad;
  core::DhsContext ctx = core::BuildDhsContext(
      ag::Constant(rng.NormalTensor(Shape{n, d})), 1e-8);
  const core::DhsView<Scalar> view = core::ViewOf(ctx);
  Tensor w = rng.NormalTensor(Shape{1, d});
  Tensor raw = rng.UniformTensor(Shape{1, n}, 0.01, 1.0);
  Tensor p = raw * (1.0 / raw.Sum());
  Tensor scratch(Shape{1, 3 * n + 2 * d});
  Tensor ds(Shape{1, d});
  for (auto _ : state) {
    core::Derivative(view, w.data(), p.data(), scratch.data(), ds.data());
    benchmark::DoNotOptimize(ds.data());
  }
}
BENCHMARK(BM_DhsDerivative)->Arg(32)->Arg(128)->Arg(512);

// The DIFFODE right-hand side at perfbench's sizes: d = 16, d_c = d_r = 12,
// hidden 32, a context of n = 60 observations, one head, max-Hoyer and the
// HiPPO head. Weights and the factorization are random leaves, so the two
// benchmarks below time the RHS alone.
struct RhsBench {
  static constexpr Index kN = 60;
  core::RhsDims dims;
  std::vector<ag::Var> layers;  // φ, f_r, w_r: weight then bias
  std::vector<core::DhsContext> heads;
  ag::Var h2;
  core::RhsInputs in;

  RhsBench() {
    dims.d = 16;
    dims.dc = 12;
    dims.dr = 12;
    dims.hidden = 32;
    Rng rng(27);
    const Index d = dims.d, h = dims.hidden;
    const Index shapes[][2] = {{d + 1, h}, {h, d},
                               {d + dims.dc + dims.dr, h}, {h, dims.dr},
                               {dims.dr, 1}};
    for (const auto& s : shapes) {
      layers.push_back(ag::Param(
          rng.NormalTensor(Shape{s[0], s[1]}) *
          (1.0 / std::sqrt(static_cast<Scalar>(s[0])))));
      layers.push_back(ag::Param(rng.NormalTensor(Shape{1, s[1]}) * 0.1));
    }
    core::DhsContext ctx;
    {
      ag::NoGradScope no_grad;
      ctx = core::BuildDhsContext(
          ag::Constant(rng.NormalTensor(Shape{kN, d})), kRidge);
    }
    // The factorization as leaves, as a sequence's shared nodes are to
    // every RHS node of its unroll.
    for (ag::Var* v : {&ctx.z, &ctx.zt_pinv, &ctx.ap_rowsum, &ctx.ap_total})
      *v = ag::Param(v->value());
    heads.push_back(ctx);
    h2 = ag::Param(rng.NormalTensor(Shape{1, kN}));
    in.dims = dims;
    for (const ag::Var& v : layers) in.layers.push_back(&v);
    in.hippo_a_t = ag::Constant(rng.NormalTensor(Shape{dims.dc, dims.dc}));
    in.hippo_b_t = ag::Constant(rng.NormalTensor(Shape{1, dims.dc}));
    in.heads = &heads;
    in.h2 = &h2;
  }

  // y = [S | c | r] with S inside Z's convex hull, as the solver sees it.
  Tensor State(Rng& rng) const {
    Tensor y = rng.NormalTensor(Shape{1, dims.StateDim()}) * 0.3;
    Tensor raw = rng.UniformTensor(Shape{1, kN}, 0.01, 1.0);
    const Tensor s = (raw * (1.0 / raw.Sum())).MatMul(heads[0].z.value());
    std::copy_n(s.data(), dims.d, y.data());
    return y;
  }
};

// One per-sequence RHS evaluation as training runs it: the RhsVar tape node
// (forward) and its backward, on a warm arena and buffer pool.
void BM_DiffOdeRhsNode(benchmark::State& state) {
  RhsBench bench;
  Rng rng(28);
  ag::Var y = ag::Param(bench.State(rng));
  const Tensor seed = rng.NormalTensor(Shape{1, bench.dims.StateDim()});
  for (auto _ : state) {
    ag::TapeArena::Scope arena_scope;
    tensor::BufferPool::Scope pool_scope;
    {
      ag::Var k = core::RhsVar(bench.in, 0.5, y);
      k.Backward(seed);
    }
    ag::TapeArena::ThreadLocal().Reset();
  }
}
BENCHMARK(BM_DiffOdeRhsNode);

// One GRU encoder pass as training runs it: GruCell::Scan over a 48-step
// context (the tape node, forward) and its BPTT backward, at the perfbench
// encoder sizes (in = 2f + 2 = 12, H = 16), on a warm arena and buffer pool.
void BM_GruScanNode(benchmark::State& state) {
  const Index n = 48, in = 12, hidden = 16;
  Rng rng(30);
  nn::GruCell cell(in, hidden, rng);
  const Tensor x = rng.NormalTensor(Shape{n, in});
  const Tensor seed = rng.NormalTensor(Shape{n, hidden});
  for (auto _ : state) {
    ag::TapeArena::Scope arena_scope;
    tensor::BufferPool::Scope pool_scope;
    {
      ag::Var states = cell.Scan(ag::Constant(x), cell.InitialState(1));
      states.Backward(seed);
      benchmark::DoNotOptimize(states.value().data());
    }
    ag::TapeArena::ThreadLocal().Reset();
  }
}
BENCHMARK(BM_GruScanNode);

// The lockstep engine's per-wave RHS at B = 32: DiffOdeRhs over 32 rows (one
// shared context), forward only. Divide by 32 for the per-row cost.
void BM_DiffOdeRhsWave(benchmark::State& state) {
  const Index b = 32;
  RhsBench bench;
  Rng rng(29);
  const Index sd = bench.dims.StateDim();
  Tensor y(Shape{b, sd});
  for (Index i = 0; i < b; ++i) {
    const Tensor row = bench.State(rng);
    std::copy_n(row.data(), sd, y.data() + i * sd);
  }
  const std::vector<Scalar> tt(static_cast<std::size_t>(b), 0.5);
  core::RhsWeights<Scalar> wt;
  core::DenseView<Scalar>* dense[] = {&wt.phi1, &wt.phi2, &wt.fr1, &wt.fr2,
                                      &wt.wr};
  for (std::size_t i = 0; i < 5; ++i)
    *dense[i] = {bench.layers[2 * i].value().data(),
                 bench.layers[2 * i + 1].value().data()};
  wt.hippo_a_t = bench.in.hippo_a_t.value().data();
  wt.hippo_b_t = bench.in.hippo_b_t.value().data();
  const core::DhsView<Scalar> view = core::ViewOf(bench.heads[0]);
  core::RhsRow<Scalar> row;
  row.heads = &view;
  row.h2 = bench.h2.value().data();
  const core::RhsLayout lay(bench.dims, b, RhsBench::kN);
  std::vector<Scalar> saved(static_cast<std::size_t>(lay.saved_size));
  std::vector<Scalar> scratch(static_cast<std::size_t>(lay.scratch_size));
  Tensor k(Shape{b, sd});
  for (auto _ : state) {
    core::DiffOdeRhs(
        bench.dims, wt, lay, b,
        [&row](Index) -> const core::RhsRow<Scalar>& { return row; },
        tt.data(), y.data(), saved.data(), scratch.data(), k.data());
    benchmark::DoNotOptimize(k.data());
  }
}
BENCHMARK(BM_DiffOdeRhsWave);

// The lockstep engine's encode phase at serving shape: 32 ICU-like rows
// (37 channels, 40-60 observations, half the channels observed), perfbench's
// model sizes, one pool thread. PredictAtBatched with no queries runs the
// featurizer, the GRU waves and the per-row factorizations and initial
// states, and integrates nothing; one query per row adds a short
// integration and one readout. Args: precision (0 = f64, 1 = f32), queries
// per row (0 or 1).
void BM_DiffOdeEncodeBatch(benchmark::State& state) {
  const Index b = 32, f = 37;
  Rng rng(31);
  std::vector<data::IrregularSeries> series(static_cast<std::size_t>(b));
  for (data::IrregularSeries& s : series) {
    const Index n = 40 + static_cast<Index>(rng.Uniform(0.0, 21.0));
    s.values = rng.NormalTensor(Shape{n, f});
    s.mask = Tensor(Shape{n, f});
    Scalar t = 0.0;
    for (Index i = 0; i < n; ++i) {
      t += rng.Uniform(0.1, 1.0);
      s.times.push_back(t);
      for (Index j = 0; j < f; ++j)
        if (rng.Uniform(0.0, 1.0) < 0.5) s.mask.at(i, j) = 1.0;
    }
  }
  std::vector<const data::IrregularSeries*> ptrs;
  std::vector<std::vector<Scalar>> times(static_cast<std::size_t>(b));
  for (std::size_t r = 0; r < series.size(); ++r) {
    ptrs.push_back(&series[r]);
    if (state.range(1) > 0) times[r].push_back(series[r].times.back() + 1.0);
  }
  const data::SequenceBatch batch = data::MakeSequenceBatch(ptrs);
  core::DiffOdeConfig config;
  config.input_dim = f;
  config.latent_dim = 16;
  config.hippo_dim = 12;
  config.info_dim = 12;
  config.step = 1.0;
  core::DiffOde model(config);
  model.Freeze(state.range(0) == 0 ? Precision::kF64 : Precision::kF32);
  parallel::ThreadPool::SetNumThreads(1);
  for (auto _ : state) {
    auto out = model.PredictAtBatched(batch, times);
    benchmark::DoNotOptimize(out.data());
  }
  parallel::ThreadPool::SetNumThreads(0);
  state.SetItemsProcessed(state.iterations() * b);
}
BENCHMARK(BM_DiffOdeEncodeBatch)
    ->ArgNames({"f32", "queries"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1});

}  // namespace
}  // namespace diffode

BENCHMARK_MAIN();
