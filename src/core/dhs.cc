#include "core/dhs.h"

#include <cmath>

#include "autograd/ops_linalg.h"

namespace diffode::core {

DhsContext BuildDhsContext(const ag::Var& z, Scalar ridge) {
  DhsContext ctx;
  ctx.z = z;
  ctx.n = z.rows();
  ctx.d = z.cols();
  ctx.zt = ag::Transpose(z);
  // (Zᵀ)† = Z (ZᵀZ + ridge I)^{-1}; differentiable through the inverse.
  ag::Var gram = ag::MatMul(ctx.zt, z);
  ag::Var gram_inv = ag::RidgeInverse(gram, ridge);
  ctx.zt_pinv = ag::MatMul(z, gram_inv);
  // A_p J = 1 - (Zᵀ)† (Zᵀ 1). With n <= d and independent rows of Z, Zᵀ has
  // an empty null space and A_p is exactly zero; the ridge would leave a
  // ridge-sized residue there that max-Hoyer divides rounding noise by (an
  // O(1) error in f32). With A_p J = 0, max-Hoyer takes p = b.
  ag::Var ones_col = ag::Constant(Tensor::Ones(Shape{ctx.n, 1}));
  if (ctx.n <= ctx.d) {
    ctx.ap_colsum = ag::Constant(Tensor::Zeros(Shape{ctx.n, 1}));
  } else {
    ag::Var zt_ones = ag::MatMul(ctx.zt, ones_col);   // d x 1
    ag::Var proj = ag::MatMul(ctx.zt_pinv, zt_ones);  // n x 1
    ctx.ap_colsum = ag::Sub(ones_col, proj);
  }
  ctx.ap_rowsum = ag::Transpose(ctx.ap_colsum);
  ctx.ap_total = ag::Sum(ctx.ap_colsum);
  return ctx;
}

void CacheAdaHCorrection(DhsContext* ctx, const ag::Var& h_ada) {
  DIFFODE_CHECK(ctx != nullptr);
  DIFFODE_CHECK(h_ada.defined());
  // h A_p with A_p = I - (Zᵀ)† Zᵀ (symmetric).
  ag::Var h_proj = ag::MatMulNT(ag::MatMul(h_ada, ctx->zt_pinv), ctx->z);
  ctx->ada_corr = ag::Sub(h_ada, h_proj);
}

ag::Var DhsForward(const DhsContext& ctx, const ag::Var& z_query) {
  const Scalar scale = 1.0 / std::sqrt(static_cast<Scalar>(ctx.d));
  ag::Var logits =
      ag::MulScalar(ag::MatMulNT(z_query, ctx.z), scale);
  return ag::MatMul(ag::Softmax(logits), ctx.z);
}

DhsView<Scalar> ViewOf(const DhsContext& ctx) {
  DhsView<Scalar> v;
  v.zt_pinv = ctx.zt_pinv.value().data();
  v.z = ctx.z.value().data();
  v.ap_rowsum = ctx.ap_rowsum.value().data();
  if (ctx.ada_corr.defined()) v.ada_corr = ctx.ada_corr.value().data();
  v.ap_total = ctx.ap_total.value().item();
  v.n = ctx.n;
  v.d = ctx.d;
  return v;
}

namespace {

using ag::Node;
using ag::detail::MakeNode;

// Scatters g_b, the gradient at b = s (Zᵀ)†ᵀ, into parent 0 (s) and
// parent 1 ((Zᵀ)†): g_s = g_b (Zᵀ)† and g_(Zᵀ)† = g_bᵀ s.
void BackwardThroughB(Node& node, const Scalar* gb) {
  const Tensor& s = node.parents[0]->value;
  const Tensor& pinv = node.parents[1]->value;
  const Index n = pinv.rows(), d = pinv.cols();
  Tensor gs = Tensor::Uninit(s.shape());
  kernels::Gemm(1, n, d, gb, pinv.data(), gs.data());
  node.parents[0]->AccumulateGrad(gs);
  Tensor gpinv = Tensor::Uninit(pinv.shape());
  kernels::GemmTN(n, 1, d, gb, s.data(), gpinv.data());
  node.parents[1]->AccumulateGrad(gpinv);
}

}  // namespace

ag::Var RecoverPVar(const DhsContext& ctx, const ag::Var& s,
                    sparsity::PtStrategy strategy) {
  const DhsView<Scalar> v = ViewOf(ctx);
  Tensor p = Tensor::Uninit(Shape{1, ctx.n});
  const Scalar coeff = RecoverP(v, s.value().data(), strategy, p.data());
  if (strategy == sparsity::PtStrategy::kAdaH) {
    // p = b + h A_p: the gradient passes to b and the correction unchanged.
    return MakeNode(std::move(p), {&s, &ctx.zt_pinv, &ctx.ada_corr},
                    [](Node& n) {
                      n.parents[2]->AccumulateGrad(n.grad);
                      BackwardThroughB(n, n.grad.data());
                    });
  }
  if (strategy == sparsity::PtStrategy::kMinNorm || !HoyerCorrects(v)) {
    // p = b.
    return MakeNode(std::move(p), {&s, &ctx.zt_pinv}, [](Node& n) {
      BackwardThroughB(n, n.grad.data());
    });
  }
  // Max-Hoyer, p = b - coeff r with coeff = (Σb - 1)/T, r = (A_p J)ᵀ and
  // T = J A_p J: g_b = g - (<g,r>/T) 1, g_r = -coeff g, g_T = <g,r> coeff/T.
  return MakeNode(
      std::move(p), {&s, &ctx.zt_pinv, &ctx.ap_rowsum, &ctx.ap_total},
      [coeff](Node& n) {
        const Index cnt = n.value.numel();
        const Scalar* g = n.grad.data();
        const Scalar total = n.parents[3]->value.item();
        const Scalar gr = kernels::Dot(cnt, g, n.parents[2]->value.data());
        const Scalar shift = gr / total;
        Tensor gb = Tensor::Uninit(n.value.shape());
        Tensor g_r = Tensor::Uninit(n.value.shape());
        for (Index k = 0; k < cnt; ++k) {
          gb.data()[k] = g[k] - shift;
          g_r.data()[k] = -coeff * g[k];
        }
        BackwardThroughB(n, gb.data());
        n.parents[2]->AccumulateGrad(g_r);
        n.parents[3]->AccumulateGrad(
            Tensor::Full(Shape{1, 1}, gr * coeff / total));
      });
}

ag::Var RecoverZVar(const DhsContext& ctx, const ag::Var& p,
                    const ag::Var& h2) {
  Tensor z = Tensor::Uninit(Shape{1, ctx.d});
  Tensor scratch = Tensor::Uninit(Shape{1, ctx.n});
  RecoverZ(ViewOf(ctx), p.value().data(), h2.value().data(), scratch.data(),
           z.data());
  // z = √d a P with a = c p - 1, c = <p,h2>/<p,p> and P = (Zᵀ)†:
  // g_a = √d g Pᵀ, g_P = √d aᵀ g, g_c = <g_a,p>,
  // g_p = c g_a + g_c (h2 - 2c p)/<p,p>, g_h2 = g_c p/<p,p>.
  return MakeNode(std::move(z), {&p, &h2, &ctx.zt_pinv}, [](Node& n) {
    const Tensor& pinv = n.parents[2]->value;
    const Index cnt = pinv.rows(), d = pinv.cols();
    const Scalar* pv = n.parents[0]->value.data();
    const Scalar* h2v = n.parents[1]->value.data();
    const Scalar sq = std::sqrt(static_cast<Scalar>(d));
    const Scalar pp = kernels::Dot(cnt, pv, pv);
    const Scalar c = kernels::Dot(cnt, pv, h2v) / pp;
    Tensor ga = Tensor::Uninit(Shape{1, cnt});
    kernels::GemmNT(1, d, cnt, n.grad.data(), pinv.data(), ga.data());
    kernels::Scale(cnt, sq, ga.data());
    Tensor a = Tensor::Uninit(Shape{1, cnt});  // √d a
    for (Index k = 0; k < cnt; ++k) a.data()[k] = sq * (pv[k] * c - 1.0);
    Tensor gpinv = Tensor::Uninit(pinv.shape());
    kernels::GemmTN(cnt, 1, d, a.data(), n.grad.data(), gpinv.data());
    n.parents[2]->AccumulateGrad(gpinv);
    const Scalar gc_pp = kernels::Dot(cnt, ga.data(), pv) / pp;
    Tensor gp = Tensor::Uninit(Shape{1, cnt});
    Tensor gh2 = Tensor::Uninit(Shape{1, cnt});
    for (Index k = 0; k < cnt; ++k) {
      gp.data()[k] = c * ga.data()[k] + gc_pp * (h2v[k] - 2.0 * c * pv[k]);
      gh2.data()[k] = gc_pp * pv[k];
    }
    n.parents[0]->AccumulateGrad(gp);
    n.parents[1]->AccumulateGrad(gh2);
  });
}

ag::Var DhsDerivative(const DhsContext& ctx, const ag::Var& w,
                      const ag::Var& p) {
  Tensor ds = Tensor::Uninit(Shape{1, ctx.d});
  Tensor scratch = Tensor::Uninit(Shape{1, 3 * ctx.n + 2 * ctx.d});
  Derivative(ViewOf(ctx), w.value().data(), p.value().data(), scratch.data(),
             ds.data());
  // With u = w Zᵀ, q = g Zᵀ and σ = 1/√d:
  // g_u = σ (p ⊙ q - <p,q> p), g_p = σ (u ⊙ q - <p,q> u - <u,p> q),
  // g_w = g_u Z, g_Z = g_uᵀ w + σ (u ⊙ p - <u,p> p)ᵀ g.
  return MakeNode(std::move(ds), {&w, &p, &ctx.z}, [](Node& n) {
    const Tensor& z = n.parents[2]->value;
    const Index cnt = z.rows(), d = z.cols();
    const Scalar* wv = n.parents[0]->value.data();
    const Scalar* pv = n.parents[1]->value.data();
    const Scalar* g = n.grad.data();
    const Scalar sigma = 1.0 / std::sqrt(static_cast<Scalar>(d));
    // Scratch: u, q (n each), then the two GemmTN operands [g_u ; v]
    // (2 x n) and [w ; σ g] (2 x d).
    Tensor buf = Tensor::Uninit(Shape{1, 4 * cnt + 2 * d});
    Scalar* u = buf.data();
    Scalar* q = u + cnt;
    Scalar* lhs = q + cnt;
    Scalar* rhs = lhs + 2 * cnt;
    kernels::GemmNT(1, d, cnt, wv, z.data(), u);
    kernels::GemmNT(1, d, cnt, g, z.data(), q);
    const Scalar up = kernels::Dot(cnt, u, pv);
    const Scalar pq = kernels::Dot(cnt, pv, q);
    Tensor gp = Tensor::Uninit(Shape{1, cnt});
    for (Index k = 0; k < cnt; ++k) {
      lhs[k] = sigma * (pv[k] * q[k] - pq * pv[k]);
      lhs[cnt + k] = u[k] * pv[k] - up * pv[k];
      gp.data()[k] = sigma * (u[k] * q[k] - pq * u[k] - up * q[k]);
    }
    std::copy_n(wv, d, rhs);
    for (Index j = 0; j < d; ++j) rhs[d + j] = sigma * g[j];
    Tensor gw = Tensor::Uninit(Shape{1, d});
    kernels::Gemm(1, cnt, d, lhs, z.data(), gw.data());
    Tensor gz = Tensor::Uninit(z.shape());
    kernels::GemmTN(cnt, 2, d, lhs, rhs, gz.data());
    n.parents[0]->AccumulateGrad(gw);
    n.parents[1]->AccumulateGrad(gp);
    n.parents[2]->AccumulateGrad(gz);
  });
}

}  // namespace diffode::core
