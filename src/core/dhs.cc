#include "core/dhs.h"

#include <cmath>
#include <memory>
#include <vector>

#include "autograd/arena.h"
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


void RecoverPVjp(const DhsView<Scalar>& v, const Scalar* s,
                 sparsity::PtStrategy strategy, Scalar coeff, const Scalar* g,
                 Scalar* scratch, Scalar* gs, const DhsViewGrad& gv) {
  const Index n = v.n, d = v.d;
  Scalar* gb = scratch;     // n, the cotangent at b = s (Zᵀ)†ᵀ
  Scalar* gs_b = gb + n;    // d
  Scalar* outer = gs_b + d; // n x d
  std::copy_n(g, n, gb);
  if (strategy == sparsity::PtStrategy::kAdaH) {
    // p = b + h A_p: the cotangent passes to b and the correction unchanged.
    kernels::Axpy(n, 1.0, g, gv.ada_corr);
  } else if (strategy == sparsity::PtStrategy::kMaxHoyer && HoyerCorrects(v)) {
    // p = b - coeff r with coeff = (Σb - 1)/T, r = (A_p J)ᵀ and T = J A_p J:
    // g_b = g - (<g,r>/T) 1, g_r = -coeff g, g_T = <g,r> coeff/T.
    const Scalar gr = kernels::Dot(n, g, v.ap_rowsum);
    const Scalar shift = gr / v.ap_total;
    for (Index k = 0; k < n; ++k) gb[k] = g[k] - shift;
    kernels::Axpy(n, -coeff, g, gv.ap_rowsum);
    *gv.ap_total += gr * coeff / v.ap_total;
  }
  // b = s (Zᵀ)†ᵀ: g_s = g_b (Zᵀ)† and g_(Zᵀ)† = g_bᵀ s.
  kernels::Gemm(1, n, d, gb, v.zt_pinv, gs_b);
  kernels::Axpy(d, 1.0, gs_b, gs);
  kernels::GemmTN(n, 1, d, gb, s, outer);
  kernels::Axpy(n * d, 1.0, outer, gv.zt_pinv);
}

void RecoverZVjp(const DhsView<Scalar>& v, const Scalar* p, const Scalar* h2,
                 const Scalar* g, Scalar* scratch, Scalar* gp, Scalar* gh2,
                 const DhsViewGrad& gv) {
  // z = √d a P with a = c p - 1, c = <p,h2>/<p,p> and P = (Zᵀ)†:
  // g_a = √d g Pᵀ, g_P = √d aᵀ g, g_c = <g_a,p>,
  // g_p = c g_a + g_c (h2 - 2c p)/<p,p>, g_h2 = g_c p/<p,p>.
  const Index n = v.n, d = v.d;
  const Scalar sq = std::sqrt(static_cast<Scalar>(d));
  const Scalar pp = kernels::Dot(n, p, p);
  const Scalar c = kernels::Dot(n, p, h2) / pp;
  Scalar* ga = scratch;      // n
  Scalar* a = ga + n;        // n, √d a
  Scalar* outer = a + n;     // n x d
  kernels::GemmNT(1, d, n, g, v.zt_pinv, ga);
  kernels::Scale(n, sq, ga);
  const Scalar gc_pp = kernels::Dot(n, ga, p) / pp;
  for (Index k = 0; k < n; ++k) {
    a[k] = sq * (p[k] * c - 1.0);
    gp[k] += c * ga[k] + gc_pp * (h2[k] - 2.0 * c * p[k]);
    gh2[k] += gc_pp * p[k];
  }
  kernels::GemmTN(n, 1, d, a, g, outer);
  kernels::Axpy(n * d, 1.0, outer, gv.zt_pinv);
}

void DerivativeVjp(const DhsView<Scalar>& v, const Scalar* w, const Scalar* p,
                   const Scalar* g, Scalar* scratch, Scalar* gw, Scalar* gp,
                   const DhsViewGrad& gv) {
  // With u = w Zᵀ, q = g Zᵀ and σ = 1/√d:
  // g_u = σ (p ⊙ q - <p,q> p), g_p = σ (u ⊙ q - <p,q> u - <u,p> q),
  // g_w = g_u Z, g_Z = g_uᵀ w + σ (u ⊙ p - <u,p> p)ᵀ g.
  const Index n = v.n, d = v.d;
  const Scalar sigma = 1.0 / std::sqrt(static_cast<Scalar>(d));
  Scalar* u = scratch;
  Scalar* q = u + n;
  Scalar* lhs = q + n;        // [g_u ; σ (u ⊙ p - <u,p> p)], 2 x n
  Scalar* rhs = lhs + 2 * n;  // [w ; g], 2 x d
  Scalar* gw_z = rhs + 2 * d; // d
  Scalar* outer = gw_z + d;   // n x d, g_Z's rank-two term
  kernels::GemmNT(1, d, n, w, v.z, u);
  kernels::GemmNT(1, d, n, g, v.z, q);
  const Scalar up = kernels::Dot(n, u, p);
  const Scalar pq = kernels::Dot(n, p, q);
  for (Index k = 0; k < n; ++k) {
    lhs[k] = sigma * (p[k] * q[k] - pq * p[k]);
    lhs[n + k] = sigma * (u[k] * p[k] - up * p[k]);
    gp[k] += sigma * (u[k] * q[k] - pq * u[k] - up * q[k]);
  }
  std::copy_n(w, d, rhs);
  std::copy_n(g, d, rhs + d);
  kernels::Gemm(1, n, d, lhs, v.z, gw_z);
  kernels::Axpy(d, 1.0, gw_z, gw);
  kernels::GemmTN(n, 2, d, lhs, rhs, outer);
  kernels::Axpy(n * d, 1.0, outer, gv.z);
}

namespace {

// What an RHS node's backward reads besides its parents' values: the shapes
// and the saved region of DiffOdeRhs at a = 1 (RhsLayout(dims, 1, n)).
struct RhsRecord {
  RhsDims dims;
  Index n = 0;  // context length (0 without attention)
  const Scalar* saved = nullptr;
};

// The record of a node built with no TapeArena active, owned by its
// backward closure.
struct HeapRhsRecord {
  RhsRecord rec;
  std::vector<Scalar> saved;
};

// Parent slots of an RHS node, in the order RhsVar lists them: y, the
// layers (φ; f_r, w_r), Aᵀ and Bᵀ, then h2 and per head Z, (Zᵀ)† and the
// strategy's correction terms — or z̄ without attention.
struct RhsSlots {
  Index phi = 0, fr = 0, wr = 0, a_t = 0, b_t = 0, h2 = 0, z_mean = 0;
  Index head0 = 0, per_head = 0, count = 0;

  explicit RhsSlots(const RhsDims& m) {
    Index at = 1;
    if (m.attn) {
      phi = at;
      at += 4;
    }
    if (m.UsesHippo()) {
      fr = at;
      at += 4;
      wr = at;
      at += 2;
      a_t = at++;
      b_t = at++;
    }
    if (m.attn) {
      h2 = at++;
      head0 = at;
      per_head = 2 + (m.strategy == sparsity::PtStrategy::kMaxHoyer ? 2
                      : m.strategy == sparsity::PtStrategy::kAdaH   ? 1
                                                                    : 0);
      at += m.heads * per_head;
    } else {
      z_mean = at++;
    }
    count = at;
  }
};

// The tape's views of head `hh` as the backward reads them: the parents'
// current values, which are what the forward read.
DhsView<Scalar> HeadView(const ag::Node& node, const RhsDims& m,
                         const RhsSlots& slot, Index hh) {
  const auto& par = node.parents;
  const Index at = slot.head0 + hh * slot.per_head;
  DhsView<Scalar> v;
  v.z = par[static_cast<std::size_t>(at)]->value.data();
  const Tensor& pinv = par[static_cast<std::size_t>(at + 1)]->value;
  v.zt_pinv = pinv.data();
  v.n = pinv.rows();
  v.d = pinv.cols();
  if (m.strategy == sparsity::PtStrategy::kMaxHoyer) {
    v.ap_rowsum = par[static_cast<std::size_t>(at + 2)]->value.data();
    v.ap_total = par[static_cast<std::size_t>(at + 3)]->value.item();
  } else if (m.strategy == sparsity::PtStrategy::kAdaH) {
    v.ada_corr = par[static_cast<std::size_t>(at + 2)]->value.data();
  }
  return v;
}

void Accumulate(ag::Node& node, Index slot, const Tensor& g) {
  node.parents[static_cast<std::size_t>(slot)]->AccumulateGrad(g);
}

// VJP of y = x W + b at one row (W, b at parent slots `slot`, slot + 1):
// accumulates g_W = xᵀ g and g_b = g, and writes g_x = g Wᵀ into gx.
void DenseVjp(ag::Node& node, Index slot, Index in, Index out,
              const Scalar* x, const Scalar* g, Scalar* gx) {
  const Tensor& w = node.parents[static_cast<std::size_t>(slot)]->value;
  Tensor gw = Tensor::Uninit(w.shape());
  kernels::GemmTN(in, 1, out, x, g, gw.data());
  Accumulate(node, slot, gw);
  Tensor gb = Tensor::Uninit(Shape{1, out});
  std::copy_n(g, out, gb.data());
  Accumulate(node, slot + 1, gb);
  kernels::GemmNT(1, out, in, g, w.data(), gx);
}

// VJP of out = tanh(x W1 + b1) W2 + b2 at one row, h being the saved
// hidden layer: accumulates the four parameter cotangents (slots slot ..
// slot + 3) and writes g_x into gx; gh is scratch for `hidden` values.
void TanhMlpVjp(ag::Node& node, Index slot, Index in, Index hidden,
                Index out, const Scalar* x, const Scalar* h,
                const Scalar* g, Scalar* gh, Scalar* gx) {
  DenseVjp(node, slot + 2, hidden, out, h, g, gh);
  for (Index j = 0; j < hidden; ++j) gh[j] *= 1.0 - h[j] * h[j];
  DenseVjp(node, slot, in, hidden, x, gh, gx);
}

void RhsBackward(ag::Node& node, const RhsRecord& rec) {
  const RhsDims& m = rec.dims;
  const RhsSlots slot(m);
  const RhsLayout lay(m, 1, rec.n);
  const Index sd = m.StateDim();
  const Index d = m.d, dc = m.dc, dr = m.dr, dh = m.dh(), n = rec.n;
  const Index fr_in = d + dc + dr;
  const Scalar* saved = rec.saved;
  const Scalar* g = node.grad.data();
  const Scalar* y = node.parents[0]->value.data();
  Tensor gy(Shape{1, sd});
  // Scratch: the layer input/cotangent rows, then the DHS VJPs' share.
  const Index wide = std::max(fr_in, d + 1);
  Tensor buf = Tensor::Uninit(
      Shape{1, 2 * wide + m.hidden + std::max(dc, dr) + 2 * d +
                   m.heads * n + DhsVjpScratch(n, dh)});
  Scalar* x = buf.data();   // wide
  Scalar* gx = x + wide;    // wide
  Scalar* gh = gx + wide;   // hidden
  Scalar* tmp = gh + m.hidden;
  if (m.UsesHippo()) {
    const Index s0 = m.attn ? d : 0;
    Scalar* gy_c = gy.data() + s0;
    Scalar* gy_r = gy_c + dc;
    const Scalar* gdc = g + s0;
    // dc/dt = c Aᵀ + Bᵀ w_r(r): g_c = g_dc A, g_{w_r} = <g_dc, Bᵀ>.
    const Scalar* a_t =
        node.parents[static_cast<std::size_t>(slot.a_t)]->value.data();
    const Scalar* b_t =
        node.parents[static_cast<std::size_t>(slot.b_t)]->value.data();
    kernels::GemmNT(1, dc, dc, gdc, a_t, tmp);
    for (Index j = 0; j < dc; ++j) gy_c[j] += tmp[j];
    const Scalar gwr = kernels::Dot(dc, gdc, b_t);
    DenseVjp(node, slot.wr, dr, 1, y + s0 + dc, &gwr, tmp);
    for (Index j = 0; j < dr; ++j) gy_r[j] += tmp[j];
    // dr/dt = f_r(x), x = [S | c | r] = y, or [z̄ | c | r].
    const Scalar* xfr = y;
    if (!m.attn) {
      std::copy_n(
          node.parents[static_cast<std::size_t>(slot.z_mean)]->value.data(),
          d, x);
      std::copy_n(y, sd, x + d);
      xfr = x;
    }
    TanhMlpVjp(node, slot.fr, fr_in, m.hidden, dr, xfr, saved + lay.fr_h,
               g + s0 + dc, gh, gx);
    if (m.attn) {
      for (Index j = 0; j < sd; ++j) gy.data()[j] += gx[j];
    } else {
      Tensor gz_mean = Tensor::Uninit(Shape{1, d});
      std::copy_n(gx, d, gz_mean.data());
      Accumulate(node, slot.z_mean, gz_mean);
      for (Index j = 0; j < sd; ++j) gy.data()[j] += gx[d + j];
    }
  }
  if (m.attn) {
    const Scalar* w = saved + lay.w;
    Scalar* gw = tmp;       // d
    Scalar* go = gw + d;    // d
    Scalar* gp = go + d;    // heads x n
    Scalar* vjp = gp + m.heads * n;  // DhsVjpScratch(n, dh)
    std::fill_n(gw, d, 0.0);
    std::fill_n(gp, m.heads * n, 0.0);
    // ds/dt per head (Eq. 12), into g_w, g_p and g_Z.
    for (Index hh = 0; hh < m.heads; ++hh) {
      const DhsView<Scalar> v = HeadView(node, m, slot, hh);
      Tensor gz(Shape{n, dh});
      DhsViewGrad gv;
      gv.z = gz.data();
      DerivativeVjp(v, w + hh * dh, saved + lay.p + hh * n, g + hh * dh, vjp,
                    gw + hh * dh, gp + hh * n, gv);
      Accumulate(node, slot.head0 + hh * slot.per_head, gz);
    }
    // w = tanh(o), o = φ([z | t]).
    for (Index j = 0; j < d; ++j) go[j] = gw[j] * (1.0 - w[j] * w[j]);
    TanhMlpVjp(node, slot.phi, d + 1, m.hidden, d, saved + lay.xphi,
               saved + lay.phi_h, go, gh, gx);
    // z from p (Eq. 34), then p from S (Eq. 32), per head.
    const Scalar* h2 =
        node.parents[static_cast<std::size_t>(slot.h2)]->value.data();
    Tensor gh2(Shape{1, n});
    for (Index hh = 0; hh < m.heads; ++hh) {
      const DhsView<Scalar> v = HeadView(node, m, slot, hh);
      const Index at = slot.head0 + hh * slot.per_head;
      Tensor gpinv(Shape{n, dh});
      Tensor grow, gtotal, gada;
      DhsViewGrad gv;
      gv.zt_pinv = gpinv.data();
      const bool hoyer = m.strategy == sparsity::PtStrategy::kMaxHoyer &&
                         HoyerCorrects(v);
      if (hoyer) {
        grow = Tensor(Shape{1, n});
        gtotal = Tensor(Shape{1, 1});
        gv.ap_rowsum = grow.data();
        gv.ap_total = gtotal.data();
      } else if (m.strategy == sparsity::PtStrategy::kAdaH) {
        gada = Tensor(Shape{1, n});
        gv.ada_corr = gada.data();
      }
      const Scalar* p = saved + lay.p + hh * n;
      RecoverZVjp(v, p, h2, gx + hh * dh, vjp, gp + hh * n, gh2.data(), gv);
      RecoverPVjp(v, y + hh * dh, m.strategy, saved[lay.coeff + hh],
                  gp + hh * n, vjp, gy.data() + hh * dh, gv);
      Accumulate(node, at + 1, gpinv);
      if (hoyer) {
        Accumulate(node, at + 2, grow);
        Accumulate(node, at + 3, gtotal);
      } else if (m.strategy == sparsity::PtStrategy::kAdaH) {
        Accumulate(node, at + 2, gada);
      }
    }
    Accumulate(node, slot.h2, gh2);
  }
  Accumulate(node, 0, gy);
}

}  // namespace

ag::Var RhsVar(const RhsInputs& in, Scalar t, const ag::Var& y) {
  const RhsDims& m = in.dims;
  const Index sd = m.StateDim();
  DIFFODE_CHECK_EQ(y.rows(), 1);
  DIFFODE_CHECK_EQ(y.cols(), sd);
  RhsWeights<Scalar> wt;
  std::size_t li = 0;
  const auto next_layer = [&in, &li] {
    DIFFODE_CHECK_LT(li + 1, in.layers.size());
    DenseView<Scalar> l{in.layers[li]->value().data(),
                        in.layers[li + 1]->value().data()};
    li += 2;
    return l;
  };
  if (m.attn) {
    wt.phi1 = next_layer();
    wt.phi2 = next_layer();
  }
  if (m.UsesHippo()) {
    wt.fr1 = next_layer();
    wt.fr2 = next_layer();
    wt.wr = next_layer();
    wt.hippo_a_t = in.hippo_a_t.value().data();
    wt.hippo_b_t = in.hippo_b_t.value().data();
  }
  DIFFODE_CHECK_EQ(li, in.layers.size());
  // Per-thread scratch lists (RhsVar never re-enters itself).
  static thread_local std::vector<DhsView<Scalar>> views;
  static thread_local std::vector<const ag::Var*> parents;
  views.clear();
  RhsRow<Scalar> row;
  Index n = 0;
  if (m.attn) {
    DIFFODE_CHECK_EQ(static_cast<Index>(in.heads->size()), m.heads);
    for (const DhsContext& ctx : *in.heads) views.push_back(ViewOf(ctx));
    n = views.front().n;
    row.heads = views.data();
    row.h2 = in.h2->value().data();
  } else {
    row.z_mean = in.z_mean->value().data();
  }
  const RhsLayout lay(m, 1, n);
  const bool record = ag::GradMode::IsEnabled();
  ag::TapeArena* arena = record ? ag::TapeArena::Active() : nullptr;
  // With grad off the saved region is plain scratch.
  Tensor scratch = Tensor::Uninit(
      Shape{1, lay.scratch_size + (record ? 0 : lay.saved_size)});
  RhsRecord* rec = nullptr;
  std::shared_ptr<HeapRhsRecord> owned;
  Scalar* saved = nullptr;
  if (arena != nullptr) {
    rec = ::new (arena->Allocate(sizeof(RhsRecord), alignof(RhsRecord)))
        RhsRecord{m, n, nullptr};
    saved = static_cast<Scalar*>(arena->Allocate(
        static_cast<std::size_t>(lay.saved_size) * sizeof(Scalar),
        alignof(Scalar)));
    rec->saved = saved;
  } else if (record) {
    owned = std::make_shared<HeapRhsRecord>();
    owned->saved.resize(static_cast<std::size_t>(lay.saved_size));
    saved = owned->saved.data();
    owned->rec = RhsRecord{m, n, saved};
  } else {
    saved = scratch.data() + lay.scratch_size;
  }
  Tensor k = Tensor::Uninit(Shape{1, sd});
  DiffOdeRhs(
      m, wt, lay, 1, [&row](Index) -> const RhsRow<Scalar>& { return row; },
      &t, y.value().data(), saved, scratch.data(), k.data());
  if (!record) return ag::Var(std::move(k));
  parents.clear();
  parents.push_back(&y);
  parents.insert(parents.end(), in.layers.begin(), in.layers.end());
  if (m.UsesHippo()) {
    parents.push_back(&in.hippo_a_t);
    parents.push_back(&in.hippo_b_t);
  }
  if (m.attn) {
    parents.push_back(in.h2);
    for (const DhsContext& ctx : *in.heads) {
      parents.push_back(&ctx.z);
      parents.push_back(&ctx.zt_pinv);
      if (m.strategy == sparsity::PtStrategy::kMaxHoyer) {
        parents.push_back(&ctx.ap_rowsum);
        parents.push_back(&ctx.ap_total);
      } else if (m.strategy == sparsity::PtStrategy::kAdaH) {
        parents.push_back(&ctx.ada_corr);
      }
    }
  } else {
    parents.push_back(in.z_mean);
  }
  DIFFODE_CHECK_EQ(static_cast<Index>(parents.size()), RhsSlots(m).count);
  if (arena != nullptr) {
    return ag::detail::MakeNodeFrom(
        std::move(k), parents,
        [rec](ag::Node& node) { RhsBackward(node, *rec); });
  }
  return ag::detail::MakeNodeFrom(
      std::move(k), parents,
      [owned = std::move(owned)](ag::Node& node) {
        RhsBackward(node, owned->rec);
      });
}

}  // namespace diffode::core
