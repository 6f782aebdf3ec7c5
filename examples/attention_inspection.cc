// Inspect the differentiable hidden state machinery directly: build latent
// codes, invert the attention with each p_t strategy through the model's own
// factorization (core::BuildDhsContext and the core/dhs.h kernels), and
// compare sparsity against the Theorem-1 oracle — a hands-on tour of the
// paper's Sec. III-C and Fig. 3.
//
//   ./examples/attention_inspection

#include <cmath>
#include <cstdio>

#include "core/config.h"
#include "core/dhs.h"
#include "sparsity/hoyer.h"
#include "sparsity/pt_solver.h"
#include "tensor/random.h"

using namespace diffode;

int main() {
  std::printf("Attention inversion walkthrough\n");
  std::printf("===============================\n\n");

  // Latent codes Z for n = 12 observations in a d = 4 space, factorized at
  // the model's default ridge.
  ag::NoGradScope no_grad;
  Rng rng(7);
  const Index n = 12, d = 4;
  Tensor z = rng.NormalTensor(Shape{n, d});
  core::DhsContext ctx =
      core::BuildDhsContext(ag::Constant(z), core::DiffOdeConfig{}.ridge);

  // A DHS produced by genuine softmax attention from a random query.
  ag::Var q = ag::Constant(rng.NormalTensor(Shape{1, d}));
  Tensor p_true = ag::Softmax(ag::MulScalar(ag::MatMulNT(q, ctx.z),
                                            1.0 / std::sqrt(Scalar(d))))
                      .value();
  Tensor s = core::DhsForward(ctx, q).value();
  std::printf("true attention p (Hoyer %.3f):\n  %s\n\n",
              sparsity::HoyerAbs(p_true), p_true.ToString().c_str());

  // Recover p from S with each strategy (Eq. 13 / Eq. 32), then with the
  // exact Theorem-1 search.
  core::CacheAdaHCorrection(&ctx, ag::Constant(rng.NormalTensor(Shape{1, n})));
  const core::DhsView<Scalar> view = core::ViewOf(ctx);
  auto report = [&](const char* name, const Tensor& p) {
    Tensor s_rec = p.MatMul(z);
    std::printf("%-9s Hoyer %.3f  sum %.4f  ||pZ - S|| %.2e\n", name,
                sparsity::HoyerAbs(p), p.Sum(), (s_rec - s).MaxAbs());
  };
  struct Row {
    const char* name;
    sparsity::PtStrategy strategy;
  };
  const Row rows[] = {
      {"minNorm", sparsity::PtStrategy::kMinNorm},
      {"maxHoyer", sparsity::PtStrategy::kMaxHoyer},
      {"adaH", sparsity::PtStrategy::kAdaH},
  };
  for (const Row& row : rows) {
    Tensor p = Tensor::Uninit(Shape{1, n});
    core::RecoverP(view, s.data(), row.strategy, p.data());
    report(row.name, p);
  }
  Tensor exact = sparsity::MaxHoyerExactKkt(z, ctx.zt_pinv.value(), s);
  if (exact.numel() == n) {
    report("exactKKT", exact);
  } else {
    std::printf("exactKKT  no feasible KKT point\n");
  }

  // Recover the latent code z_t from p (Eq. 34).
  const Tensor h2 = rng.NormalTensor(Shape{1, n});
  Tensor z_rec = Tensor::Uninit(Shape{1, d});
  Tensor scratch = Tensor::Uninit(Shape{1, n});
  core::RecoverZ(view, p_true.data(), h2.data(), scratch.data(), z_rec.data());
  std::printf("\nrecovered z_t (1 x %lld): %s\n", static_cast<long long>(d),
              z_rec.ToString().c_str());
  std::printf("\nevery strategy reconstructs S exactly; they differ in how "
              "the extra\ndegrees of freedom (n - d = %lld) are spent.\n",
              static_cast<long long>(n - d));
  return 0;
}
