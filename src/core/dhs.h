#ifndef DIFFODE_CORE_DHS_H_
#define DIFFODE_CORE_DHS_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "core/parallel.h"
#include "sparsity/pt_solver.h"
#include "tensor/kernels.h"

namespace diffode::core {

// The per-sequence factorization of the attention inversion on the tape:
// built once per forward pass so gradients flow through Z, the Gram
// inverse, and every recovery. One context per attention head (Z is the
// head's column slice). The lockstep engine computes the same values with
// the same kernels calls and no tape (diffode_lockstep.cc). Analysis code
// builds it from a constant Z under NoGradScope and runs the kernels below
// on ViewOf(ctx).
//
// The context doubles as the per-sequence factorization cache: everything
// that depends only on Z (and the free vectors) — Zᵀ, the Gram inverse
// behind (Zᵀ)†, the projector sums, the adaH correction — is a tape node
// built exactly once here and shared by every solver step and
// consistency-loss evaluation of the sequence. Gradients from all uses
// accumulate into the shared nodes, which is exactly the correct gradient.
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

// Precomputes the adaH correction h A_p = h - ((h (Zᵀ)†) Zᵀ) for the kAdaH
// recovery of the tape path (the engine mirrors its value chain).
void CacheAdaHCorrection(DhsContext* ctx, const ag::Var& h_ada);

// Forward DHS read-out (paper Eq. 5): S = softmax(z_q Zᵀ / sqrt(d)) Z.
ag::Var DhsForward(const DhsContext& ctx, const ag::Var& z_query);

// ---------------------------------------------------------------------------
// The DHS kernels. These three are the whole per-step arithmetic of the
// dynamics (Eqs. 32, 34, 12) for one head. DiffOdeRhs below calls them per
// row, and so do the analysis benches and tests on ViewOf(ctx). They are
// header templates so the per-row loops can inline them.

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

// The kernels' vector-Jacobian products, as plain f64 functions: the
// per-step backward of the unrolled solver. Each takes the cotangent g of
// its kernel's output and ADDS the cotangents of the inputs into the given
// buffers, so contributions from several kernels sum in place. The
// factorization's cotangents go into a DhsViewGrad.
struct DhsViewGrad {
  Scalar* z = nullptr;          // n x d
  Scalar* zt_pinv = nullptr;    // n x d
  Scalar* ap_rowsum = nullptr;  // n; max-Hoyer only
  Scalar* ap_total = nullptr;   // 1; max-Hoyer only
  Scalar* ada_corr = nullptr;   // n; adaH only
};

// Scratch (in Scalars) that each VJP below needs for an n x d head.
inline Index DhsVjpScratch(Index n, Index d) { return 4 * n + 3 * d + n * d; }

// RecoverP: g (n) at p; `coeff` is what RecoverP returned. Adds into gs (d)
// and gv.
void RecoverPVjp(const DhsView<Scalar>& v, const Scalar* s,
                 sparsity::PtStrategy strategy, Scalar coeff, const Scalar* g,
                 Scalar* scratch, Scalar* gs, const DhsViewGrad& gv);

// RecoverZ: g (d) at z. Adds into gp (n), gh2 (n) and gv.zt_pinv.
void RecoverZVjp(const DhsView<Scalar>& v, const Scalar* p, const Scalar* h2,
                 const Scalar* g, Scalar* scratch, Scalar* gp, Scalar* gh2,
                 const DhsViewGrad& gv);

// Derivative: g (d) at ds. Adds into gw (d), gp (n) and gv.z.
void DerivativeVjp(const DhsView<Scalar>& v, const Scalar* w, const Scalar* p,
                   const Scalar* g, Scalar* scratch, Scalar* gw, Scalar* gp,
                   const DhsViewGrad& gv);

// ---------------------------------------------------------------------------
// The DIFFODE right-hand side, once. DiffOdeRhs is the whole RHS of the
// augmented state (Eqs. 32, 34, 12 per head, φ, and the HiPPO coupling of
// Eq. 36) for `a` active rows at dtype T. The lockstep engine
// (diffode_lockstep.cc) calls it per wave over its frozen layer snapshot;
// RhsVar wraps it at a = 1 in f64, over the live parameters, as one tape
// node. So the per-sequence path (grad on or off) and the engine at B = 1
// run the same instructions on the same inputs.

// Rows per task of the per-row recovery passes. Chunk boundaries depend
// only on (rows, kRhsChunk), so each chunk owns a fixed slice of the
// scratch and results are bitwise identical at any thread count.
inline constexpr Index kRhsChunk = 16;

// The shapes and switches of the RHS (from DiffOdeConfig).
struct RhsDims {
  Index d = 0;       // DHS width (latent_dim)
  Index dc = 0;      // HiPPO coefficients
  Index dr = 0;      // information state r
  Index hidden = 0;  // hidden width of φ and f_r
  Index heads = 1;
  bool attn = true;     // false: the HiPPO-RNN-like ablation, state [c | r]
  bool direct = false;  // direct head: state S only
  sparsity::PtStrategy strategy = sparsity::PtStrategy::kMaxHoyer;

  Index dh() const { return d / heads; }
  Index StateDim() const {
    if (!attn) return dc + dr;
    return direct ? d : d + dc + dr;
  }
  // Whether the HiPPO tail (f_r, w_r) runs.
  bool UsesHippo() const { return !attn || !direct; }
};

// One affine layer y = x W + b: W is in x out, b is 1 x out, row-major.
template <typename T>
struct DenseView {
  const T* w = nullptr;
  const T* b = nullptr;
};

// The RHS's layers: φ is (d+1) -> hidden -> d, f_r is (d+dc+dr) -> hidden
// -> dr (tanh hidden layers), w_r is dr -> 1; Aᵀ and Bᵀ of the LegS pair.
template <typename T>
struct RhsWeights {
  DenseView<T> phi1, phi2, fr1, fr2, wr;
  const T* hippo_a_t = nullptr;  // dc x dc
  const T* hippo_b_t = nullptr;  // 1 x dc
};

// What one row reads of its sequence: the per-head factorizations and h2
// (attention), or z̄ (no attention).
template <typename T>
struct RhsRow {
  const DhsView<T>* heads = nullptr;
  const T* h2 = nullptr;      // 1 x n
  const T* z_mean = nullptr;  // 1 x d
};

// Offsets of DiffOdeRhs's buffers for `a` rows whose contexts have at most
// n_stride observations. The saved region holds what a backward reads; the
// tape keeps it per node (at a = 1), the engine reuses it per wave.
struct RhsLayout {
  Index n_stride = 0;
  // Saved region.
  Index p = 0;      // a x heads x n_stride
  Index coeff = 0;  // a x heads, RecoverP's max-Hoyer coefficients
  Index xphi = 0;   // a x (d + 1), φ's input [z | t]
  Index phi_h = 0;  // a x hidden, φ's hidden layer
  Index w = 0;      // a x d, w = tanh(φ(z, t))
  Index fr_h = 0;   // a x hidden, f_r's hidden layer
  Index saved_size = 0;
  // Scratch region.
  Index rec = 0;  // one rec_stride slice per kRhsChunk rows
  Index rec_stride = 0;
  Index c = 0;       // a x dc
  Index r = 0;       // a x dr
  Index xfr = 0;     // a x (d + dc + dr), [z̄ | c | r] without attention
  Index ur = 0;      // a x dr, f_r's output
  Index dc_out = 0;  // a x dc, c Aᵀ
  Index wr = 0;      // a, w_r(r)
  Index scratch_size = 0;

  RhsLayout() = default;
  RhsLayout(const RhsDims& m, Index a, Index n_max) : n_stride(n_max) {
    Index at = 0;
    const auto take = [&at](Index count) {
      const Index off = at;
      at += count;
      return off;
    };
    if (m.attn) {
      p = take(a * m.heads * n_stride);
      coeff = take(a * m.heads);
      xphi = take(a * (m.d + 1));
      phi_h = take(a * m.hidden);
      w = take(a * m.d);
    }
    if (m.UsesHippo()) fr_h = take(a * m.hidden);
    saved_size = at;
    at = 0;
    rec_stride = m.attn ? 3 * n_stride + 2 * m.dh() : 0;
    rec = take(((a + kRhsChunk - 1) / kRhsChunk) * rec_stride);
    if (m.UsesHippo()) {
      c = take(a * m.dc);
      r = take(a * m.dr);
      if (!m.attn) xfr = take(a * (m.d + m.dc + m.dr));
      ur = take(a * m.dr);
      dc_out = take(a * m.dc);
      wr = take(a);
    }
    scratch_size = at;
  }
};

// y (a x out) = x (a x in) W + b.
template <typename T>
void DenseForward(const DenseView<T>& l, Index a, Index in, Index out,
                  const T* x, T* y) {
  kernels::Gemm(a, in, out, x, l.w, y);
  for (Index i = 0; i < a; ++i)
    for (Index j = 0; j < out; ++j) y[i * out + j] += l.b[j];
}

// fn(i0, i1) over the fixed kRhsChunk grid of [0, a), inline for one chunk.
template <typename Fn>
void ForRowChunks(Index a, const Fn& fn) {
  if (a <= kRhsChunk) {
    fn(Index{0}, a);
    return;
  }
  parallel::ParallelFor(0, a, kRhsChunk,
                        [&fn](Index i0, Index i1) { fn(i0, i1); });
}

// k (a x StateDim()) = f(tt, y) for the active rows; row_at(i) returns row
// i's RhsRow<T>. tt holds the rows' times (f64; rounded to T where they
// enter φ). saved and scratch are laid out by `lay`.
template <typename T, typename RowAt>
void DiffOdeRhs(const RhsDims& m, const RhsWeights<T>& wt,
                const RhsLayout& lay, Index a, const RowAt& row_at,
                const Scalar* tt, const T* y, T* saved, T* scratch, T* k) {
  const Index sd = m.StateDim();
  const Index d = m.d, dc = m.dc, dr = m.dr, dh = m.dh();
  if (m.attn) {
    // Invert the attention per row and head into xphi = [z | t] and p, run
    // φ once for all rows, then the derivatives.
    T* xphi = saved + lay.xphi;
    ForRowChunks(a, [&](Index i0, Index i1) {
      T* rec = scratch + lay.rec + (i0 / kRhsChunk) * lay.rec_stride;
      for (Index i = i0; i < i1; ++i) {
        const RhsRow<T>& row = row_at(i);
        for (Index hh = 0; hh < m.heads; ++hh) {
          const DhsView<T>& v = row.heads[hh];
          T* p = saved + lay.p + (i * m.heads + hh) * lay.n_stride;
          saved[lay.coeff + i * m.heads + hh] =
              RecoverP(v, y + i * sd + hh * dh, m.strategy, p);
          RecoverZ(v, p, row.h2, rec, xphi + i * (d + 1) + hh * dh);
        }
        xphi[i * (d + 1) + d] = static_cast<T>(tt[i]);
      }
    });
    // w = tanh(φ(z, t)): the learned dz/dt. The tanh bound keeps long
    // rollouts (extrapolation far past the observation window) from blowing
    // up.
    T* phi_h = saved + lay.phi_h;
    T* w = saved + lay.w;
    DenseForward(wt.phi1, a, d + 1, m.hidden, xphi, phi_h);
    kernels::MapTanh(a * m.hidden, phi_h, phi_h);
    DenseForward(wt.phi2, a, m.hidden, d, phi_h, w);
    kernels::MapTanh(a * d, w, w);
    ForRowChunks(a, [&](Index i0, Index i1) {
      T* rec = scratch + lay.rec + (i0 / kRhsChunk) * lay.rec_stride;
      for (Index i = i0; i < i1; ++i) {
        const RhsRow<T>& row = row_at(i);
        for (Index hh = 0; hh < m.heads; ++hh)
          Derivative(row.heads[hh], w + i * d + hh * dh,
                     saved + lay.p + (i * m.heads + hh) * lay.n_stride, rec,
                     k + i * sd + hh * dh);
      }
    });
    if (m.direct) return;
  }
  // The HiPPO tail (Eq. 36) at column s0: dc/dt = c Aᵀ + Bᵀ w_r(r),
  // dr/dt = f_r(x) with x = [S | c | r] (the state row itself) or, without
  // attention, [z̄ | c | r].
  const Index s0 = m.attn ? d : 0;
  const Index fr_in = d + dc + dr;
  const T* xfr = y;
  if (!m.attn) {
    T* x = scratch + lay.xfr;
    for (Index i = 0; i < a; ++i) {
      std::copy_n(row_at(i).z_mean, d, x + i * fr_in);
      std::copy_n(y + i * sd, dc + dr, x + i * fr_in + d);
    }
    xfr = x;
  }
  T* fr_h = saved + lay.fr_h;
  T* ur = scratch + lay.ur;
  DenseForward(wt.fr1, a, fr_in, m.hidden, xfr, fr_h);
  kernels::MapTanh(a * m.hidden, fr_h, fr_h);
  DenseForward(wt.fr2, a, m.hidden, dr, fr_h, ur);
  T* c = scratch + lay.c;
  T* r = scratch + lay.r;
  for (Index i = 0; i < a; ++i) {
    std::copy_n(y + i * sd + s0, dc, c + i * dc);
    std::copy_n(y + i * sd + s0 + dc, dr, r + i * dr);
  }
  T* dc_out = scratch + lay.dc_out;
  T* wr = scratch + lay.wr;
  kernels::Gemm(a, dc, dc, c, wt.hippo_a_t, dc_out);
  DenseForward(wt.wr, a, dr, 1, r, wr);
  for (Index i = 0; i < a; ++i) {
    T* krow = k + i * sd + s0;
    const T* dcrow = dc_out + i * dc;
    for (Index j = 0; j < dc; ++j) krow[j] = dcrow[j] + wt.hippo_b_t[j] * wr[i];
    std::copy_n(ur + i * dr, dr, krow + dc);
  }
}

// The tape side of the RHS: the live parameters and the sequence's
// contexts. RhsVar reads the layers' current values as its RhsWeights and
// takes every Var here as a parent of its node; `heads`, `h2` and `z_mean`
// must outlive the calls.
struct RhsInputs {
  RhsDims dims;
  // Weight then bias of each layer in use: φ's two layers (attention),
  // then f_r's two layers and w_r (UsesHippo()).
  std::vector<const ag::Var*> layers;
  ag::Var hippo_a_t, hippo_b_t;  // constants, UsesHippo()
  const std::vector<DhsContext>* heads = nullptr;  // attention
  const ag::Var* h2 = nullptr;                     // attention, 1 x n
  const ag::Var* z_mean = nullptr;                 // no attention, 1 x d
};

// f(t, y) for one sequence (y is 1 x StateDim()) as ONE tape node: the
// forward is DiffOdeRhs at a = 1, the backward chains the VJPs above with
// those of φ, f_r, w_r and the HiPPO tail. The activations the backward
// reads are bump-allocated from the thread's TapeArena (the heap when no
// arena is active); under NoGradScope nothing is recorded and the result is
// a value-only Var.
ag::Var RhsVar(const RhsInputs& in, Scalar t, const ag::Var& y);

}  // namespace diffode::core

#endif  // DIFFODE_CORE_DHS_H_
