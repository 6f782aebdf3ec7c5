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
  ctx.ones_row = ag::Constant(Tensor::Ones(Shape{1, ctx.n}));
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

ag::Var RecoverPVar(const DhsContext& ctx, const ag::Var& s,
                    sparsity::PtStrategy strategy, const ag::Var& h_ada) {
  // b = S (Zᵀ)†ᵀ, 1 x n.
  ag::Var b = ag::MatMulNT(s, ctx.zt_pinv);
  switch (strategy) {
    case sparsity::PtStrategy::kMinNorm:
      return b;
    case sparsity::PtStrategy::kAdaH: {
      // p = b + h A_p. The correction is per-sequence, so Encode caches it
      // once (CacheAdaHCorrection); fall back to computing it inline for
      // callers that did not.
      if (ctx.ada_corr.defined()) return ag::AddInPlace(b, ctx.ada_corr);
      DIFFODE_CHECK(h_ada.defined());
      ag::Var h_proj = ag::MatMulNT(ag::MatMul(h_ada, ctx.zt_pinv), ctx.z);
      return ag::Add(b, ag::Sub(h_ada, h_proj));
    }
    case sparsity::PtStrategy::kExactKkt:
      // The combinatorial Theorem-1 search is not differentiable; training
      // uses the relaxed closed form, and the exact solver is exposed on the
      // plain-tensor path (sparsity::MaxHoyerExactKkt) for analysis.
      [[fallthrough]];
    case sparsity::PtStrategy::kMaxHoyer: {
      // Eq. 32: p = b - (Σb - 1) (A_p J)ᵀ / (J A_p J).
      if (std::fabs(ctx.ap_total.value().item()) < 1e-10) return b;
      ag::Var coeff =
          ag::DivByScalarVar(ag::AddScalar(ag::Sum(b), -1.0), ctx.ap_total);
      ag::Var corr = ag::MulByScalarVar(ctx.ap_rowsum, coeff);
      return ag::Sub(b, corr);
    }
  }
  DIFFODE_CHECK(false);
  return b;
}

ag::Var RecoverZVar(const DhsContext& ctx, const ag::Var& p,
                    const ag::Var& h2) {
  // a_h = ((h2·p)/(p·p)) p - 1 (rank-one form of Eq. 34).
  ag::Var pp = ag::Dot(p, p);
  ag::Var ph = ag::Dot(p, h2);
  ag::Var c = ag::Div(ph, pp);  // 1 x 1
  ag::Var a_h = ag::Sub(ag::MulByScalarVar(p, c), ctx.ones_row);
  return ag::MulScalar(ag::MatMul(a_h, ctx.zt_pinv),
                       std::sqrt(static_cast<Scalar>(ctx.d)));
}

ag::Var DhsDerivative(const DhsContext& ctx, const ag::Var& w,
                      const ag::Var& p) {
  const Scalar scale = 1.0 / std::sqrt(static_cast<Scalar>(ctx.d));
  ag::Var u = ag::MatMulNT(w, ctx.z);                   // 1 x n
  ag::Var term1 = ag::MatMul(ag::Mul(u, p), ctx.z);     // 1 x d
  ag::Var up = ag::Dot(u, p);                           // 1 x 1
  ag::Var term2 = ag::MulByScalarVar(ag::MatMul(p, ctx.z), up);
  return ag::MulScalar(ag::Sub(term1, term2), scale);
}

}  // namespace diffode::core
