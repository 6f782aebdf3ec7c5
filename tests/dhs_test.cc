#include "core/dhs.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "autograd/arena.h"
#include "linalg/pinv.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "sparsity/pt_solver.h"
#include "tensor/random.h"

namespace diffode::core {
namespace {

using ag::Var;

struct Fixture {
  Var z;           // n x d parameter
  DhsContext ctx;
  Var query;       // 1 x d
  Var s;           // 1 x d = DHS at the query

  static Fixture Make(Index n, Index d, std::uint64_t seed) {
    Fixture f;
    Rng rng(seed);
    f.z = ag::Param(rng.NormalTensor(Shape{n, d}));
    f.ctx = BuildDhsContext(f.z, 0.0);
    f.query = ag::Param(rng.NormalTensor(Shape{1, d}));
    f.s = DhsForward(f.ctx, f.query);
    return f;
  }
};

// The factorization against the SVD Moore-Penrose pseudoinverse (Definition
// 1): (Zᵀ)† and A_p J = (I - (Zᵀ)† Zᵀ) 1.
TEST(DhsContextTest, MatchesSvdPseudoinverse) {
  for (Index n : {10, 20, 40}) {
    Fixture f = Fixture::Make(n, 4, static_cast<std::uint64_t>(n));
    const Tensor zt = f.z.value().Transposed();
    const Tensor pinv = linalg::PInverse(zt);
    const Tensor ap_colsum =
        (Tensor::Eye(n) - pinv.MatMul(zt)).MatMul(Tensor::Ones(Shape{n, 1}));
    EXPECT_LT((f.ctx.zt_pinv.value() - pinv).MaxAbs(), 1e-10) << "n=" << n;
    EXPECT_LT((f.ctx.ap_colsum.value() - ap_colsum).MaxAbs(), 1e-10)
        << "n=" << n;
    EXPECT_NEAR(f.ctx.ap_total.value().item(), ap_colsum.Sum(), 1e-10)
        << "n=" << n;
  }
}

TEST(DhsForwardTest, IsConvexCombinationOfRows) {
  // S = p Z with p a softmax: S lies inside the convex hull of Z's rows,
  // so every coordinate is bounded by the per-column extrema.
  Fixture f = Fixture::Make(8, 3, 2);
  const Tensor s = f.s.value();
  for (Index j = 0; j < 3; ++j) {
    Scalar lo = f.z.value().at(0, j), hi = lo;
    for (Index i = 1; i < 8; ++i) {
      lo = std::min(lo, f.z.value().at(i, j));
      hi = std::max(hi, f.z.value().at(i, j));
    }
    EXPECT_GE(s.at(0, j), lo - 1e-12);
    EXPECT_LE(s.at(0, j), hi + 1e-12);
  }
}


// The kernels on a context's current values, as the analysis code runs them.
Tensor RecoverPOf(const DhsContext& ctx, const Tensor& s,
                  sparsity::PtStrategy strategy) {
  Tensor p = Tensor::Uninit(Shape{1, ctx.n});
  RecoverP(ViewOf(ctx), s.data(), strategy, p.data());
  return p;
}

Tensor RecoverZOf(const DhsContext& ctx, const Tensor& p, const Tensor& h2) {
  Tensor z = Tensor::Uninit(Shape{1, ctx.d});
  Tensor scratch = Tensor::Uninit(Shape{1, ctx.n});
  RecoverZ(ViewOf(ctx), p.data(), h2.data(), scratch.data(), z.data());
  return z;
}

Tensor DerivativeOf(const DhsContext& ctx, const Tensor& w, const Tensor& p) {
  Tensor ds = Tensor::Uninit(Shape{1, ctx.d});
  Tensor scratch = Tensor::Uninit(Shape{1, 3 * ctx.n + 2 * ctx.d});
  Derivative(ViewOf(ctx), w.data(), p.data(), scratch.data(), ds.data());
  return ds;
}

TEST(RecoverPTest, MatchesSvdClosedForms) {
  // Eq. 13 (min-norm, adaH) and Eq. 32 (max-Hoyer) written with the SVD
  // pseudoinverse: b = S (Zᵀ)†ᵀ, p = b + h A_p, p = b - (Σb - 1) (A_p J)ᵀ /
  // (J A_p J).
  for (Index n : {10, 20, 40}) {
    Fixture f = Fixture::Make(n, 4, static_cast<std::uint64_t>(n));
    const Tensor zt = f.z.value().Transposed();
    const Tensor pinv = linalg::PInverse(zt);
    const Tensor ap = Tensor::Eye(n) - pinv.MatMul(zt);
    const Tensor aj = ap.RowSums().Transposed();
    const Tensor b = f.s.value().MatMul(pinv.Transposed());
    Rng rng(static_cast<std::uint64_t>(n) + 1);
    const Tensor h = rng.NormalTensor(Shape{1, n});
    CacheAdaHCorrection(&f.ctx, ag::Constant(h));
    const std::pair<sparsity::PtStrategy, Tensor> cases[] = {
        {sparsity::PtStrategy::kMinNorm, b},
        {sparsity::PtStrategy::kAdaH, b + h.MatMul(ap)},
        {sparsity::PtStrategy::kMaxHoyer,
         b - aj * ((b.Sum() - 1.0) / aj.Sum())}};
    for (const auto& [strategy, expected] : cases) {
      EXPECT_LT((RecoverPOf(f.ctx, f.s.value(), strategy) - expected)
                    .MaxAbs(),
                1e-10)
          << "n=" << n << " strategy " << static_cast<int>(strategy);
    }
  }
}

TEST(RecoverPTest, RoundTripReconstructsS) {
  // Any admissible p must satisfy p Z = S (the recovery is a right inverse);
  // max-Hoyer's p also sums to one.
  for (auto [n, d, seed] : {std::tuple<Index, Index, std::uint64_t>{12, 4, 5},
                            {12, 4, 4},
                            {15, 5, 5}}) {
    Fixture f = Fixture::Make(n, d, seed);
    Rng rng(99);
    CacheAdaHCorrection(&f.ctx, ag::Constant(rng.NormalTensor(Shape{1, n})));
    for (auto strategy :
         {sparsity::PtStrategy::kMaxHoyer, sparsity::PtStrategy::kMinNorm,
          sparsity::PtStrategy::kAdaH}) {
      const Tensor p = RecoverPOf(f.ctx, f.s.value(), strategy);
      EXPECT_LT((p.MatMul(f.z.value()) - f.s.value()).MaxAbs(), 1e-8)
          << n << "x" << d << " strategy " << static_cast<int>(strategy);
    }
    const Tensor p =
        RecoverPOf(f.ctx, f.s.value(), sparsity::PtStrategy::kMaxHoyer);
    EXPECT_NEAR(p.Sum(), 1.0, 1e-8) << n << "x" << d;
  }
}

TEST(RecoverPTest, ShortContextHasNoNullSpaceCorrection) {
  // n <= d: Zᵀ has an empty null space, so A_p = 0 and max-Hoyer returns the
  // min-norm b unchanged, which already recovers the attention weights.
  // (Its gradients at n <= d are checked in RecoverPVjpTest.)
  for (Index n : {3, 8}) {
    Rng rng(static_cast<std::uint64_t>(20 + n));
    Var z = ag::Param(rng.NormalTensor(Shape{n, 8}));
    Var query = ag::Param(rng.NormalTensor(Shape{1, 8}));
    DhsContext ctx = BuildDhsContext(z, 1e-6);
    EXPECT_EQ(ctx.ap_total.value().item(), 0.0);
    EXPECT_FALSE(HoyerCorrects(ViewOf(ctx)));
    const Tensor s = DhsForward(ctx, query).value();
    const Tensor b = RecoverPOf(ctx, s, sparsity::PtStrategy::kMinNorm);
    const Tensor p = RecoverPOf(ctx, s, sparsity::PtStrategy::kMaxHoyer);
    EXPECT_EQ((p - b).MaxAbs(), 0.0) << "n=" << n;
    const Scalar scale = 1.0 / std::sqrt(8.0);
    const Tensor attn =
        ag::Softmax(ag::MulScalar(ag::MatMulNT(query, z), scale)).value();
    EXPECT_LT((p - attn).MaxAbs(), 1e-3) << "n=" << n;
  }
}

TEST(RecoverZTest, MatchesSvdReference) {
  // The rank-one fast path of Eq. 34 against explicit SVD pseudoinverses, at
  // the recovered p and at the forward attention weights.
  Fixture f = Fixture::Make(9, 3, 7);
  Rng rng(8);
  Tensor h2 = rng.NormalTensor(Shape{1, 9});
  const Tensor attn =
      ag::Softmax(
          ag::MulScalar(ag::MatMulNT(f.query, f.z), 1.0 / std::sqrt(3.0)))
          .value();
  for (const Tensor& p :
       {RecoverPOf(f.ctx, f.s.value(), sparsity::PtStrategy::kMaxHoyer),
        attn}) {
    Tensor z_ref = sparsity::RecoverZReference(f.z.value(), p, h2);
    EXPECT_LT((RecoverZOf(f.ctx, p, h2) - z_ref).MaxAbs(), 1e-8);
  }
}

// The centrepiece identity: the analytic DHS derivative (Eq. 6/12)
// matches a finite difference of the *definition* S(t) = softmax(z(t) Zᵀ/√d) Z
// when z(t) moves along a known path.
TEST(DerivativeTest, MatchesFiniteDifferenceOfDefinition) {
  const Index n = 10, d = 4;
  Rng rng(11);
  Tensor z_mat = rng.NormalTensor(Shape{n, d});
  Tensor z0 = rng.NormalTensor(Shape{1, d});
  Tensor vel = rng.NormalTensor(Shape{1, d});  // dz/dt, fixed
  Var z = ag::Constant(z_mat);
  DhsContext ctx = BuildDhsContext(z, 0.0);
  auto s_of_t = [&](Scalar t) {
    Var zq = ag::Constant(z0 + vel * t);
    return DhsForward(ctx, zq).value();
  };
  // Attention weights at t = 0 (directly from the definition).
  Tensor logits = z0.MatMul(z_mat.Transposed()) *
                  (1.0 / std::sqrt(static_cast<Scalar>(d)));
  const Scalar m = logits.Max();
  Tensor p = logits.Map([m](Scalar x) { return std::exp(x - m); });
  p *= 1.0 / p.Sum();
  const Tensor ds = DerivativeOf(ctx, vel, p);
  const Scalar eps = 1e-6;
  Tensor fd = (s_of_t(eps) - s_of_t(-eps)) * (1.0 / (2.0 * eps));
  EXPECT_LT((ds - fd).MaxAbs(), 1e-6);
}

TEST(DerivativeTest, EquivalentToExplicitMatrixForm) {
  // ((w Zᵀ) ⊙ p) Z - (w Zᵀ pᵀ)(p Z) == w Zᵀ (P_diag - pᵀp) Z / ... (x √d).
  const Index n = 8, d = 3;
  Rng rng(12);
  Tensor z = rng.NormalTensor(Shape{n, d});
  Tensor w = rng.NormalTensor(Shape{1, d});
  Tensor raw = rng.UniformTensor(Shape{1, n}, 0.01, 1.0);
  Tensor p = raw * (1.0 / raw.Sum());
  DhsContext ctx = BuildDhsContext(ag::Constant(z), 0.0);
  const Tensor fast = DerivativeOf(ctx, w, p);
  // Explicit O(n d^2) form.
  Tensor pdiag(Shape{n, n});
  for (Index i = 0; i < n; ++i) pdiag.at(i, i) = p[i];
  Tensor middle = pdiag - p.Transposed().MatMul(p);
  Tensor slow = w.MatMul(z.Transposed()).MatMul(middle).MatMul(z) *
                (1.0 / std::sqrt(static_cast<Scalar>(d)));
  EXPECT_LT((fast - slow).MaxAbs(), 1e-10);
}

TEST(DerivativeTest, ZeroVelocityGivesZeroDerivative) {
  Fixture f = Fixture::Make(6, 3, 13);
  Tensor p_raw = Tensor::Full(Shape{1, 6}, 1.0 / 6.0);
  EXPECT_EQ(DerivativeOf(f.ctx, Tensor(Shape{1, 3}), p_raw).MaxAbs(), 0.0);
}

// ---------------------------------------------------------------------------
// The VJP functions against central differences of their kernels, at n > d
// and n <= d. Each loss is <g, kernel(inputs)> for a random cotangent g; the
// head's factorization is held as plain tensors so every input the VJPs
// differentiate can be perturbed on its own.

struct RawHead {
  Tensor z, zt_pinv, ap_rowsum, ap_total, ada_corr;

  static RawHead Make(Index n, Index d, std::uint64_t seed) {
    Rng rng(seed);
    ag::NoGradScope no_grad;
    DhsContext ctx =
        BuildDhsContext(ag::Constant(rng.NormalTensor(Shape{n, d})), 1e-6);
    CacheAdaHCorrection(&ctx, ag::Constant(rng.NormalTensor(Shape{1, n})));
    return RawHead{ctx.z.value(), ctx.zt_pinv.value(), ctx.ap_rowsum.value(),
                   ctx.ap_total.value(), ctx.ada_corr.value()};
  }

  // Re-read after every perturbation: ap_total is held by value.
  DhsView<Scalar> View() const {
    DhsView<Scalar> v;
    v.z = z.data();
    v.zt_pinv = zt_pinv.data();
    v.ap_rowsum = ap_rowsum.data();
    v.ada_corr = ada_corr.data();
    v.ap_total = ap_total.item();
    v.n = z.rows();
    v.d = z.cols();
    return v;
  }
};

// max over x's entries of |analytic - fd| / max(1, |fd|), fd the central
// difference of loss(), which reads x's current values.
template <typename Loss>
Scalar MaxFdError(Tensor* x, const Tensor& analytic, const Loss& loss) {
  const Scalar eps = 1e-6;
  Scalar worst = 0.0;
  for (Index i = 0; i < x->numel(); ++i) {
    const Scalar orig = (*x)[i];
    (*x)[i] = orig + eps;
    const Scalar up = loss();
    (*x)[i] = orig - eps;
    const Scalar down = loss();
    (*x)[i] = orig;
    const Scalar fd = (up - down) / (2.0 * eps);
    worst = std::max(worst,
                     std::fabs(fd - analytic[i]) / std::max(1.0, std::fabs(fd)));
  }
  return worst;
}

constexpr std::pair<Index, Index> kVjpShapes[] = {{7, 3}, {3, 4}};
constexpr Scalar kVjpBound = 1e-7;

TEST(RecoverPVjpTest, MatchesFiniteDifferences) {
  for (auto strategy :
       {sparsity::PtStrategy::kMaxHoyer, sparsity::PtStrategy::kMinNorm,
        sparsity::PtStrategy::kAdaH}) {
    for (const auto& [n, d] : kVjpShapes) {
      RawHead h = RawHead::Make(n, d, static_cast<std::uint64_t>(n * 10 + d));
      Rng rng(static_cast<std::uint64_t>(n + d));
      Tensor s = rng.NormalTensor(Shape{1, d});
      const Tensor g = rng.NormalTensor(Shape{1, n});
      const auto loss = [&] {
        Tensor p = Tensor::Uninit(Shape{1, n});
        RecoverP(h.View(), s.data(), strategy, p.data());
        return g.Dot(p);
      };
      Tensor p = Tensor::Uninit(Shape{1, n});
      const Scalar coeff = RecoverP(h.View(), s.data(), strategy, p.data());
      Tensor gs(Shape{1, d}), gpinv(Shape{n, d}), grow(Shape{1, n}),
          gtotal(Shape{1, 1}), gada(Shape{1, n});
      DhsViewGrad gv;
      gv.zt_pinv = gpinv.data();
      gv.ap_rowsum = grow.data();
      gv.ap_total = gtotal.data();
      gv.ada_corr = gada.data();
      Tensor scratch = Tensor::Uninit(Shape{1, DhsVjpScratch(n, d)});
      RecoverPVjp(h.View(), s.data(), strategy, coeff, g.data(),
                  scratch.data(), gs.data(), gv);
      const int k = static_cast<int>(strategy);
      EXPECT_LT(MaxFdError(&s, gs, loss), kVjpBound) << k << " n=" << n;
      EXPECT_LT(MaxFdError(&h.zt_pinv, gpinv, loss), kVjpBound)
          << k << " n=" << n;
      if (strategy == sparsity::PtStrategy::kMaxHoyer && n > d) {
        EXPECT_LT(MaxFdError(&h.ap_rowsum, grow, loss), kVjpBound) << n;
        EXPECT_LT(MaxFdError(&h.ap_total, gtotal, loss), kVjpBound) << n;
      } else {
        // No correction (or A_p = 0 at n <= d): nothing flows to A_p.
        EXPECT_EQ(grow.MaxAbs(), 0.0) << k << " n=" << n;
        EXPECT_EQ(gtotal.MaxAbs(), 0.0) << k << " n=" << n;
      }
      if (strategy == sparsity::PtStrategy::kAdaH) {
        EXPECT_LT(MaxFdError(&h.ada_corr, gada, loss), kVjpBound) << n;
      } else {
        EXPECT_EQ(gada.MaxAbs(), 0.0) << k << " n=" << n;
      }
    }
  }
}

TEST(RecoverZVjpTest, MatchesFiniteDifferences) {
  for (const auto& [n, d] : kVjpShapes) {
    RawHead h = RawHead::Make(n, d, static_cast<std::uint64_t>(n * 20 + d));
    Rng rng(static_cast<std::uint64_t>(n * 3 + d));
    Tensor p = rng.UniformTensor(Shape{1, n}, 0.05, 0.4);
    Tensor h2 = rng.NormalTensor(Shape{1, n});
    const Tensor g = rng.NormalTensor(Shape{1, d});
    Tensor scratch = Tensor::Uninit(Shape{1, DhsVjpScratch(n, d)});
    const auto loss = [&] {
      Tensor z = Tensor::Uninit(Shape{1, d});
      RecoverZ(h.View(), p.data(), h2.data(), scratch.data(), z.data());
      return g.Dot(z);
    };
    Tensor gp(Shape{1, n}), gh2(Shape{1, n}), gpinv(Shape{n, d});
    DhsViewGrad gv;
    gv.zt_pinv = gpinv.data();
    RecoverZVjp(h.View(), p.data(), h2.data(), g.data(), scratch.data(),
                gp.data(), gh2.data(), gv);
    EXPECT_LT(MaxFdError(&p, gp, loss), kVjpBound) << "n=" << n;
    EXPECT_LT(MaxFdError(&h2, gh2, loss), kVjpBound) << "n=" << n;
    EXPECT_LT(MaxFdError(&h.zt_pinv, gpinv, loss), kVjpBound) << "n=" << n;
  }
}

TEST(DerivativeVjpTest, MatchesFiniteDifferences) {
  for (const auto& [n, d] : kVjpShapes) {
    RawHead h = RawHead::Make(n, d, static_cast<std::uint64_t>(n * 30 + d));
    Rng rng(static_cast<std::uint64_t>(n * 5 + d));
    Tensor w = rng.NormalTensor(Shape{1, d});
    Tensor p = rng.UniformTensor(Shape{1, n}, 0.01, 0.3);
    const Tensor g = rng.NormalTensor(Shape{1, d});
    Tensor scratch = Tensor::Uninit(Shape{1, DhsVjpScratch(n, d)});
    const auto loss = [&] {
      Tensor ds = Tensor::Uninit(Shape{1, d});
      Derivative(h.View(), w.data(), p.data(), scratch.data(), ds.data());
      return g.Dot(ds);
    };
    Tensor gw(Shape{1, d}), gp(Shape{1, n}), gz(Shape{n, d});
    DhsViewGrad gv;
    gv.z = gz.data();
    DerivativeVjp(h.View(), w.data(), p.data(), g.data(), scratch.data(),
                  gw.data(), gp.data(), gv);
    EXPECT_LT(MaxFdError(&w, gw, loss), kVjpBound) << "n=" << n;
    EXPECT_LT(MaxFdError(&p, gp, loss), kVjpBound) << "n=" << n;
    EXPECT_LT(MaxFdError(&h.z, gz, loss), kVjpBound) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// The RHS node against the op chain DiffOde built before its RHS became one
// node: per head a RecoverP, RecoverZ and Derivative tape op (defined here,
// each one node whose backward calls the VJP function), slices, concats, a
// time constant, φ, f_r, w_r and the HiPPO tail as separate ag ops.

// The view a test-local op's backward reads: its parents' current values
// (Z, or (Zᵀ)† and the correction terms, filled in by the caller).
DhsView<Scalar> ShapeView(const Tensor& m) {
  DhsView<Scalar> v;
  v.n = m.rows();
  v.d = m.cols();
  return v;
}

Var RecoverPOp(const DhsContext& ctx, const Var& s,
               sparsity::PtStrategy strategy) {
  const DhsView<Scalar> fwd = ViewOf(ctx);
  Tensor p = Tensor::Uninit(Shape{1, ctx.n});
  const Scalar coeff = RecoverP(fwd, s.value().data(), strategy, p.data());
  std::vector<Var> parents = {s, ctx.zt_pinv};
  if (strategy == sparsity::PtStrategy::kMaxHoyer) {
    parents.push_back(ctx.ap_rowsum);
    parents.push_back(ctx.ap_total);
  } else if (strategy == sparsity::PtStrategy::kAdaH) {
    parents.push_back(ctx.ada_corr);
  }
  return ag::detail::MakeNode(
      std::move(p), parents, [coeff, strategy](ag::Node& node) {
        DhsView<Scalar> v = ShapeView(node.parents[1]->value);
        v.zt_pinv = node.parents[1]->value.data();
        const Index n = v.n, d = v.d;
        Tensor gs(Shape{1, d}), gpinv(Shape{n, d}), grow(Shape{1, n}),
            gtotal(Shape{1, 1}), gada(Shape{1, n});
        DhsViewGrad gv;
        gv.zt_pinv = gpinv.data();
        if (strategy == sparsity::PtStrategy::kMaxHoyer) {
          v.ap_rowsum = node.parents[2]->value.data();
          v.ap_total = node.parents[3]->value.item();
          gv.ap_rowsum = grow.data();
          gv.ap_total = gtotal.data();
        } else if (strategy == sparsity::PtStrategy::kAdaH) {
          v.ada_corr = node.parents[2]->value.data();
          gv.ada_corr = gada.data();
        }
        Tensor scratch = Tensor::Uninit(Shape{1, DhsVjpScratch(n, d)});
        RecoverPVjp(v, node.parents[0]->value.data(), strategy, coeff,
                    node.grad.data(), scratch.data(), gs.data(), gv);
        node.parents[0]->AccumulateGrad(gs);
        node.parents[1]->AccumulateGrad(gpinv);
        if (strategy == sparsity::PtStrategy::kMaxHoyer) {
          node.parents[2]->AccumulateGrad(grow);
          node.parents[3]->AccumulateGrad(gtotal);
        } else if (strategy == sparsity::PtStrategy::kAdaH) {
          node.parents[2]->AccumulateGrad(gada);
        }
      });
}

Var RecoverZOp(const DhsContext& ctx, const Var& p, const Var& h2) {
  Tensor z = RecoverZOf(ctx, p.value(), h2.value());
  return ag::detail::MakeNode(
      std::move(z), {&p, &h2, &ctx.zt_pinv}, [](ag::Node& node) {
        DhsView<Scalar> v = ShapeView(node.parents[2]->value);
        v.zt_pinv = node.parents[2]->value.data();
        Tensor gp(Shape{1, v.n}), gh2(Shape{1, v.n}), gpinv(Shape{v.n, v.d});
        DhsViewGrad gv;
        gv.zt_pinv = gpinv.data();
        Tensor scratch = Tensor::Uninit(Shape{1, DhsVjpScratch(v.n, v.d)});
        RecoverZVjp(v, node.parents[0]->value.data(),
                    node.parents[1]->value.data(), node.grad.data(),
                    scratch.data(), gp.data(), gh2.data(), gv);
        node.parents[0]->AccumulateGrad(gp);
        node.parents[1]->AccumulateGrad(gh2);
        node.parents[2]->AccumulateGrad(gpinv);
      });
}

Var DerivativeOp(const DhsContext& ctx, const Var& w, const Var& p) {
  Tensor ds = DerivativeOf(ctx, w.value(), p.value());
  return ag::detail::MakeNode(
      std::move(ds), {&w, &p, &ctx.z}, [](ag::Node& node) {
        DhsView<Scalar> v = ShapeView(node.parents[2]->value);
        v.z = node.parents[2]->value.data();
        Tensor gw(Shape{1, v.d}), gp(Shape{1, v.n}), gz(Shape{v.n, v.d});
        DhsViewGrad gv;
        gv.z = gz.data();
        Tensor scratch = Tensor::Uninit(Shape{1, DhsVjpScratch(v.n, v.d)});
        DerivativeVjp(v, node.parents[0]->value.data(),
                      node.parents[1]->value.data(), node.grad.data(),
                      scratch.data(), gw.data(), gp.data(), gv);
        node.parents[0]->AccumulateGrad(gw);
        node.parents[1]->AccumulateGrad(gp);
        node.parents[2]->AccumulateGrad(gz);
      });
}

// One DIFFODE variant's RHS ingredients: the layers, the sequence's latent
// codes and free vectors, and a state to evaluate at. The seven variants are
// those of batched_equiv_test; the encoder variant builds Z with a small MLP
// (a node with its own backward) instead of taking it as a leaf, the only
// way the encoder reaches the RHS.
struct RhsCase {
  const char* name = "";
  RhsDims dims;
  bool mlp_z = false;
};

std::vector<RhsCase> RhsCases() {
  RhsDims base;
  base.d = 4;
  base.dc = 3;
  base.dr = 3;
  base.hidden = 5;
  std::vector<RhsCase> cases;
  cases.push_back({"default", base, false});
  RhsCase c{"minNorm", base, false};
  c.dims.strategy = sparsity::PtStrategy::kMinNorm;
  cases.push_back(c);
  c = {"adaH", base, false};
  c.dims.strategy = sparsity::PtStrategy::kAdaH;
  cases.push_back(c);
  c = {"direct head", base, false};
  c.dims.direct = true;
  cases.push_back(c);
  c = {"no attention", base, false};
  c.dims.attn = false;
  cases.push_back(c);
  cases.push_back({"MLP encoder", base, true});
  c = {"2 heads", base, false};
  c.dims.heads = 2;
  cases.push_back(c);
  return cases;
}

struct RhsModel {
  RhsDims dims;
  Rng rng;
  nn::Mlp phi, f_r, enc;
  nn::Linear w_r;
  Var z_leaf, enc_in, h2_leaf, h_ada, z_mean, y;
  Var a_t, b_t;
  std::vector<Var> leaves;  // everything a gradient is compared at

  RhsModel(const RhsCase& c, Index n)
      : dims(c.dims),
        rng(static_cast<std::uint64_t>(n * 7 + c.dims.heads)),
        phi({c.dims.d + 1, c.dims.hidden, c.dims.d}, rng),
        f_r({c.dims.d + c.dims.dc + c.dims.dr, c.dims.hidden, c.dims.dr}, rng),
        enc({3, 6, c.dims.d}, rng),
        w_r(c.dims.dr, 1, rng) {
    const Index d = dims.d;
    if (c.mlp_z) {
      enc_in = ag::Constant(rng.NormalTensor(Shape{n, 3}));
      for (const Var& v : enc.Params()) leaves.push_back(v);
    } else {
      z_leaf = ag::Param(rng.NormalTensor(Shape{n, d}));
      leaves.push_back(z_leaf);
    }
    h2_leaf = ag::Param(rng.NormalTensor(Shape{1, n}));
    h_ada = ag::Param(rng.NormalTensor(Shape{1, n}));
    z_mean = ag::Param(rng.NormalTensor(Shape{1, d}));
    y = ag::Param(rng.NormalTensor(Shape{1, dims.StateDim()}) * 0.3);
    a_t = ag::Constant(rng.NormalTensor(Shape{dims.dc, dims.dc}));
    b_t = ag::Constant(rng.NormalTensor(Shape{1, dims.dc}));
    for (const Var& v : {h2_leaf, h_ada, z_mean, y}) leaves.push_back(v);
    for (const nn::Module* m : {static_cast<const nn::Module*>(&phi),
                                static_cast<const nn::Module*>(&f_r),
                                static_cast<const nn::Module*>(&w_r)})
      for (const Var& v : m->Params()) leaves.push_back(v);
  }

  // A fresh tape of the sequence-level nodes, as Encode builds them.
  struct Seq {
    std::vector<DhsContext> heads;
    Var h2;
  };
  Seq Build() const {
    Seq seq;
    Var z = z_leaf.defined() ? z_leaf : enc.Forward(enc_in);
    const Index dh = dims.dh();
    for (Index hh = 0; hh < dims.heads; ++hh) {
      Var z_h = dims.heads == 1 ? z : ag::SliceCols(z, hh * dh, dh);
      seq.heads.push_back(BuildDhsContext(z_h, 1e-6));
      if (dims.strategy == sparsity::PtStrategy::kAdaH)
        CacheAdaHCorrection(&seq.heads.back(), h_ada);
    }
    seq.h2 = h2_leaf;
    return seq;
  }

  RhsInputs Inputs(const Seq& seq) const {
    RhsInputs in;
    in.dims = dims;
    const auto add = [&in](const nn::Mlp& mlp) {
      for (const auto& l : mlp.layers()) {
        in.layers.push_back(&l->weight());
        in.layers.push_back(&l->bias());
      }
    };
    if (dims.attn) {
      add(phi);
      in.heads = &seq.heads;
      in.h2 = &seq.h2;
    } else {
      in.z_mean = &z_mean;
    }
    if (dims.UsesHippo()) {
      add(f_r);
      in.layers.push_back(&w_r.weight());
      in.layers.push_back(&w_r.bias());
      in.hippo_a_t = a_t;
      in.hippo_b_t = b_t;
    }
    return in;
  }

  // The deleted DiffOde::Dynamics closure, statement by statement.
  Var Reference(const Seq& seq, Scalar t) const {
    const Index d = dims.d, dc = dims.dc, dr = dims.dr;
    if (!dims.attn) {
      Var c = ag::SliceCols(y, 0, dc);
      Var r = ag::SliceCols(y, dc, dr);
      Var u_r = f_r.Forward(ag::ConcatCols({z_mean, c, r}));
      Var dc_dt =
          ag::Add(ag::MatMul(c, a_t), ag::MulByScalarVar(b_t, w_r.Forward(r)));
      return ag::ConcatCols({dc_dt, u_r});
    }
    const Index heads = dims.heads, dh = dims.dh();
    Var s = heads == 1 && dims.direct ? y : ag::SliceCols(y, 0, d);
    std::vector<Var> p_heads, z_heads;
    for (Index hh = 0; hh < heads; ++hh) {
      const DhsContext& ctx = seq.heads[static_cast<std::size_t>(hh)];
      Var s_h = heads == 1 ? s : ag::SliceCols(s, hh * dh, dh);
      Var p = RecoverPOp(ctx, s_h, dims.strategy);
      p_heads.push_back(p);
      z_heads.push_back(RecoverZOp(ctx, p, seq.h2));
    }
    Var z = heads == 1 ? z_heads[0] : ag::ConcatCols(z_heads);
    Var t_var = ag::Constant(Tensor::Full(Shape{1, 1}, t));
    Var w = ag::Tanh(phi.Forward(ag::ConcatCols({z, t_var})));
    std::vector<Var> ds_heads;
    for (Index hh = 0; hh < heads; ++hh) {
      Var w_h = heads == 1 ? w : ag::SliceCols(w, hh * dh, dh);
      ds_heads.push_back(DerivativeOp(seq.heads[static_cast<std::size_t>(hh)],
                                      w_h, p_heads[static_cast<std::size_t>(hh)]));
    }
    Var ds = heads == 1 ? ds_heads[0] : ag::ConcatCols(ds_heads);
    if (dims.direct) return ds;
    Var c = ag::SliceCols(y, d, dc);
    Var r = ag::SliceCols(y, d + dc, dr);
    Var u_r = f_r.Forward(ag::ConcatCols({s, c, r}));
    Var dc_dt =
        ag::Add(ag::MatMul(c, a_t), ag::MulByScalarVar(b_t, w_r.Forward(r)));
    return ag::ConcatCols({ds, dc_dt, u_r});
  }
};

struct RhsRun {
  Tensor value;
  std::vector<Tensor> grads;  // at the leaves, then each head's (Zᵀ)†
};

// Evaluates the node (or the reference) once and backpropagates `cot`.
RhsRun RunRhs(RhsModel& m, bool node, Scalar t, const Tensor& cot) {
  for (Var& v : m.leaves) v.ZeroGrad();
  RhsModel::Seq seq = m.Build();
  Var k = node ? RhsVar(m.Inputs(seq), t, m.y) : m.Reference(seq, t);
  k.Backward(cot);
  RhsRun run;
  run.value = k.value();
  for (Var& v : m.leaves) run.grads.push_back(Tensor(v.grad()));
  if (m.dims.attn)
    for (DhsContext& ctx : seq.heads) run.grads.push_back(ctx.zt_pinv.grad());
  return run;
}

void ExpectBitwise(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_TRUE(a.shape() == b.shape()) << what;
  for (Index i = 0; i < a.numel(); ++i)
    EXPECT_EQ(std::memcmp(&a.data()[i], &b.data()[i], sizeof(Scalar)), 0)
        << what << " i=" << i << " " << a[i] << " vs " << b[i];
}

TEST(RhsVarTest, MatchesOpChainReference) {
  // n = 3 <= d (max-Hoyer takes p = b) and n = 6 > d.
  for (const RhsCase& c : RhsCases()) {
    for (Index n : {3, 6}) {
      const std::string what = std::string(c.name) + " n=" + std::to_string(n);
      RhsModel m(c, n);
      // S inside Z's convex hull keeps the recoveries well scaled.
      if (c.dims.attn && m.z_leaf.defined()) {
        Tensor raw = m.rng.UniformTensor(Shape{1, n}, 0.1, 1.0);
        const Tensor s = (raw * (1.0 / raw.Sum())).MatMul(m.z_leaf.value());
        std::copy_n(s.data(), c.dims.d, m.y.mutable_value().data());
      }
      const Tensor cot = m.rng.NormalTensor(Shape{1, c.dims.StateDim()});
      const Scalar t = 0.7;
      const RhsRun ref = RunRhs(m, false, t, cot);
      const RhsRun heap = RunRhs(m, true, t, cot);
      RhsRun arena;
      {
        ag::TapeArena::Scope scope;
        arena = RunRhs(m, true, t, cot);
      }
      ag::TapeArena::ThreadLocal().Reset();
      ExpectBitwise(heap.value, ref.value, what + " value");
      ASSERT_EQ(heap.grads.size(), ref.grads.size()) << what;
      for (std::size_t i = 0; i < ref.grads.size(); ++i) {
        const Tensor& g = heap.grads[i];
        const Tensor& gr = ref.grads[i];
        ASSERT_TRUE(g.shape() == gr.shape()) << what << " grad " << i;
        for (Index e = 0; e < g.numel(); ++e)
          EXPECT_NEAR(g[e], gr[e], 1e-12 * std::max(1.0, std::fabs(gr[e])))
              << what << " grad " << i << " e=" << e;
        // Where the record lives never changes what is computed.
        ExpectBitwise(arena.grads[i], g, what + " arena grad");
      }
      ExpectBitwise(arena.value, heap.value, what + " arena value");
      // Grad off: a value-only result, bitwise the same.
      ag::NoGradScope no_grad;
      RhsModel::Seq seq = m.Build();
      const Var k = RhsVar(m.Inputs(seq), t, m.y);
      EXPECT_EQ(k.node(), nullptr) << what;
      ExpectBitwise(k.value(), heap.value, what + " no-grad value");
    }
  }
}

}  // namespace
}  // namespace diffode::core
