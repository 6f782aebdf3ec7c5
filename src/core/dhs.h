#ifndef DIFFODE_CORE_DHS_H_
#define DIFFODE_CORE_DHS_H_

#include <algorithm>
#include <cmath>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "sparsity/pt_solver.h"
#include "tensor/kernels.h"

namespace diffode::core {

// The per-sequence factorization of the attention inversion, the only one
// in the tree: built once per forward pass so gradients flow through Z, the
// Gram inverse, and every recovery. One context per attention head (Z is
// the head's column slice). Analysis code builds it from a constant Z under
// NoGradScope and runs the kernels below on ViewOf(ctx).
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
  ag::Var ada_corr;   // h A_p, 1 x n; set by CacheAdaHCorrection (adaH only)
  Index n = 0;
  Index d = 0;
};

DhsContext BuildDhsContext(const ag::Var& z, Scalar ridge);

// Precomputes the adaH correction h A_p = h - ((h (Zᵀ)†) Zᵀ), the only
// source of it for the kAdaH recovery (per-sequence and lockstep alike).
void CacheAdaHCorrection(DhsContext* ctx, const ag::Var& h_ada);

// Forward DHS read-out (paper Eq. 5): S = softmax(z_q Zᵀ / sqrt(d)) Z.
ag::Var DhsForward(const DhsContext& ctx, const ag::Var& z_query);

// ---------------------------------------------------------------------------
// The DHS right-hand side, once. The three kernels below are the whole
// per-step arithmetic of the dynamics (Eqs. 32, 34, 12) for one head. The
// tape ops RecoverPVar / RecoverZVar / DhsDerivative call them for their
// forward value, and the lockstep engine (diffode_lockstep.cc) calls them
// per row at T = double or float, so the per-sequence path (grad on or off)
// and the engine at B = 1 run the same instructions on the same inputs.
// They are header templates so the engine's per-row loops can inline them.

// A raw view of one head's factorization at dtype T.
template <typename T>
struct DhsView {
  const T* zt_pinv = nullptr;    // (Zᵀ)†, n x d row-major
  const T* z = nullptr;          // Z, n x d row-major
  const T* ap_rowsum = nullptr;  // (A_p J)ᵀ, n
  const T* ada_corr = nullptr;   // h A_p, n; null unless adaH
  T ap_total = 0;                // J A_p J
  Index n = 0;
  Index d = 0;
};

// The f64 view of a context's current values.
DhsView<Scalar> ViewOf(const DhsContext& ctx);

// Whether max-Hoyer corrects b at all: not when the projector is degenerate
// (A_p = 0 for n <= d, see BuildDhsContext).
template <typename T>
bool HoyerCorrects(const DhsView<T>& v) {
  return !(std::fabs(v.ap_total) < T(1e-10));
}

// p = s (Zᵀ)†ᵀ plus the strategy's correction (Eq. 13 / Eq. 32), written
// into p[n]. Returns the max-Hoyer coefficient (Σb - 1) / (J A_p J), or 0
// when the strategy adds none (min-norm, adaH, or a degenerate projector).
template <typename T>
T RecoverP(const DhsView<T>& v, const T* s, sparsity::PtStrategy strategy,
           T* p) {
  kernels::GemmNT(1, v.d, v.n, s, v.zt_pinv, p);
  switch (strategy) {
    case sparsity::PtStrategy::kMinNorm:
      return T(0);
    case sparsity::PtStrategy::kAdaH:
      DIFFODE_CHECK(v.ada_corr != nullptr);
      kernels::Axpy(v.n, T(1), v.ada_corr, p);
      return T(0);
    case sparsity::PtStrategy::kMaxHoyer: {
      // p = b - (Σb - 1) (A_p J)ᵀ / (J A_p J); A_p = 0 (n <= d) keeps p = b.
      if (!HoyerCorrects(v)) return T(0);
      const T coeff = (kernels::Sum(v.n, p) - T(1)) * (T(1) / v.ap_total);
      kernels::Axpy(v.n, -coeff, v.ap_rowsum, p);
      return coeff;
    }
  }
  DIFFODE_CHECK(false);
  return T(0);
}

// z = sqrt(d) (c p - 1) (Zᵀ)† with c = <p,h2>/<p,p> (Eq. 34 via the rank-one
// projector identity; see DESIGN.md), written into z[d]; scratch holds n
// values.
template <typename T>
void RecoverZ(const DhsView<T>& v, const T* p, const T* h2, T* scratch,
              T* z) {
  const T c = kernels::Dot(v.n, p, h2) / kernels::Dot(v.n, p, p);
  for (Index k = 0; k < v.n; ++k) scratch[k] = p[k] * c - T(1);
  kernels::Gemm(1, v.n, v.d, scratch, v.zt_pinv, z);
  const T sq = std::sqrt(static_cast<T>(v.d));
  for (Index j = 0; j < v.d; ++j) z[j] *= sq;
}

// The DHS time derivative (Eq. 12) given w = φ(z, t) and the recovered p:
//   dS/dt = w Zᵀ (P_diag - pᵀp) Z / sqrt(d)
//         = ((u ⊙ p) Z - <u,p> p Z) / sqrt(d),  u = w Zᵀ,
// written into ds[d] in O(n d); scratch holds 3n + 2d values. The two
// (1 x n)·(n x d) products share Z, so they run as one m = 2 GEMM.
template <typename T>
void Derivative(const DhsView<T>& v, const T* w, const T* p, T* scratch,
                T* ds) {
  const Index n = v.n, d = v.d;
  T* u = scratch;
  T* a2 = scratch + n;  // [u ⊙ p ; p], 2 x n
  T* c2 = a2 + 2 * n;   // [(u ⊙ p) Z ; p Z], 2 x d
  kernels::GemmNT(1, d, n, w, v.z, u);
  const T up = kernels::Dot(n, u, p);
  for (Index k = 0; k < n; ++k) a2[k] = u[k] * p[k];
  std::copy_n(p, n, a2 + n);
  kernels::Gemm(2, n, d, a2, v.z, c2);
  const T scale = T(1) / std::sqrt(static_cast<T>(d));
  for (Index j = 0; j < d; ++j) ds[j] = scale * (c2[j] - up * c2[d + j]);
}

// The kernels as tape ops: one node each, with a hand-derived backward (the
// per-step form of the adjoint identity dL/dθ = -∫ aᵀ ∂f/∂θ dt). Under
// NoGradScope each returns a value-only Var.

// Attention weights p(S) (1 x n) under `strategy`; kAdaH requires
// CacheAdaHCorrection on the context.
ag::Var RecoverPVar(const DhsContext& ctx, const ag::Var& s,
                    sparsity::PtStrategy strategy);

// Latent code z(p) (1 x d); `h2` (1 x n) is the trained free vector.
ag::Var RecoverZVar(const DhsContext& ctx, const ag::Var& p,
                    const ag::Var& h2);

// dS/dt (1 x d) from w (1 x d) and p (1 x n).
ag::Var DhsDerivative(const DhsContext& ctx, const ag::Var& w,
                      const ag::Var& p);

}  // namespace diffode::core

#endif  // DIFFODE_CORE_DHS_H_
