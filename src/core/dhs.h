#ifndef DIFFODE_CORE_DHS_H_
#define DIFFODE_CORE_DHS_H_

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "sparsity/pt_solver.h"

namespace diffode::core {

// Differentiable (autograd) counterpart of sparsity::AttentionInverse: the
// per-sequence factorization of the attention inversion, built once per
// forward pass so gradients flow through Z, the Gram inverse, and every
// recovery. One context per attention head (Z is the head's column slice).
//
// The context doubles as the per-sequence factorization cache: everything
// that depends only on Z (and the free vectors) — Zᵀ, the Gram inverse
// behind (Zᵀ)†, the projector sums, the adaH correction — is a tape node
// built exactly once here and shared by every solver step and
// consistency-loss evaluation of the sequence. Gradients from all uses
// accumulate into the shared nodes, which is exactly the correct adjoint.
struct DhsContext {
  ag::Var z;          // n x d_h latent codes (key/value matrix)
  ag::Var zt;         // Zᵀ, d_h x n (shared by gram, projections)
  ag::Var zt_pinv;    // (Zᵀ)† = Z (ZᵀZ + ridge I)^{-1}, n x d_h
  ag::Var ap_colsum;  // A_p J_{n,1} = (I - (Zᵀ)† Zᵀ) 1, n x 1; 0 if n <= d
  ag::Var ap_rowsum;  // (A_p J)ᵀ, 1 x n (reused every max-Hoyer recovery)
  ag::Var ap_total;   // J A_p J, 1 x 1
  ag::Var ones_row;   // constant 1 x n (reused every z-recovery)
  ag::Var ada_corr;   // h A_p, 1 x n; set by CacheAdaHCorrection (adaH only)
  Index n = 0;
  Index d = 0;
};

DhsContext BuildDhsContext(const ag::Var& z, Scalar ridge);

// Precomputes the adaH correction h A_p = h - ((h (Zᵀ)†) Zᵀ) so the kAdaH
// recovery reuses it instead of two GEMMs per solver step.
void CacheAdaHCorrection(DhsContext* ctx, const ag::Var& h_ada);

// Forward DHS read-out (paper Eq. 5): S = softmax(z_q Zᵀ / sqrt(d)) Z.
ag::Var DhsForward(const DhsContext& ctx, const ag::Var& z_query);

// Differentiable attention-weight recovery p(S) (Eq. 13 / Eq. 32).
// `h_ada` (1 x n) is consulted only for the kAdaH strategy.
ag::Var RecoverPVar(const DhsContext& ctx, const ag::Var& s,
                    sparsity::PtStrategy strategy, const ag::Var& h_ada);

// Differentiable latent-code recovery z(p) (Eq. 34 via the rank-one
// projector identity; see DESIGN.md). `h2` is the trained free vector.
ag::Var RecoverZVar(const DhsContext& ctx, const ag::Var& p,
                    const ag::Var& h2);

// The DHS time derivative (Eq. 12) given the recovered quantities:
//   dS/dt = w Zᵀ (P_diag - pᵀp) Z / sqrt(d)
// evaluated in O(n d) as ((w Zᵀ) ⊙ p) Z - (w Zᵀ pᵀ) (p Z), where w = φ(z,t).
ag::Var DhsDerivative(const DhsContext& ctx, const ag::Var& w,
                      const ag::Var& p);

}  // namespace diffode::core

#endif  // DIFFODE_CORE_DHS_H_
