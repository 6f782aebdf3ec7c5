#include "nn/gru.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "autograd/arena.h"

namespace diffode::nn {
namespace {

// What a recurrence node's backward reads besides its parents' values (x,
// h0, W_x, b_x, W_h, b_h, in that order) and its own value (every state):
// the number of sequences B and, per step, the gates the forward saved as
// four B x H blocks [R | U | C | HG_c].
struct GruRecord {
  Index rows = 0;
  const Scalar* saved = nullptr;
};

// The record of a node built with no TapeArena active, owned by its
// backward closure.
struct HeapGruRecord {
  GruRecord rec;
  std::vector<Scalar> saved;
};

// rows x cols matrix m += the 1 x cols row vector v (nn::Linear's bias).
void AddBias(Index rows, Index cols, const Scalar* v, Scalar* m) {
  for (Index i = 0; i < rows; ++i)
    for (Index j = 0; j < cols; ++j) m[i * cols + j] += v[j];
}

// BPTT over the recurrence. Walking the steps in reverse, state h' = c +
// u (h - c) of each step has the cotangent d = (g + d' u') + dHG' W_hᵀ, g
// its own and the rest carried from the step after (primed). It gives the
// gate pre-activation cotangents
//   dc = (d - d u) (1 - c²),   dr = dc hg_c r (1 - r),
//   du = d (h - c) u (1 - u),
// stored as dXG = [dr | du | dc] and dHG = [dr | du | dc r]. Each product
// and sum is the one the per-step op chain formed, in its order, so dXG,
// dHG and dX are bitwise the chain's. The parameter cotangents are one GEMM
// (or column sum) each over all T·B rows — dW_x = Xᵀ dXG, dW_h = H_prevᵀ
// dHG — which sums the steps in a different order than the chain's one
// accumulation per step, so they agree with it to round-off.
void GruBackward(ag::Node& node, const GruRecord& rec) {
  const auto& par = node.parents;
  const Tensor& x = par[0]->value;
  const Tensor& h0 = par[1]->value;
  const Tensor& wx = par[2]->value;
  const Tensor& wh = par[4]->value;
  const Index b = rec.rows, hd = h0.cols(), g3 = 3 * hd, in = x.cols();
  const Index m = x.rows(), steps = m / b;
  const Scalar* hs = node.value.data();
  const Scalar* g = node.grad.data();
  Tensor dxg = Tensor::Uninit(Shape{m, g3});
  Tensor dhg = Tensor::Uninit(Shape{m, g3});
  // The carry into the state before the step just walked, as its two
  // terms: d u and dHG W_hᵀ (for step 0 they are dh0).
  Tensor carry_u(Shape{b, hd});
  Tensor carry_w(Shape{b, hd});
  for (Index t = steps - 1; t >= 0; --t) {
    for (Index k = 0; k < b; ++k) {
      const Index i = t * b + k;
      const Scalar* r = rec.saved + (t * 4 * b + k) * hd;
      const Scalar* u = r + b * hd;
      const Scalar* c = r + 2 * b * hd;
      const Scalar* hgc = r + 3 * b * hd;
      const Scalar* hp = t == 0 ? h0.data() + k * hd : hs + (i - b) * hd;
      const Scalar* gi = g + i * hd;
      Scalar* du_carry = carry_u.data() + k * hd;
      const Scalar* dw_carry = carry_w.data() + k * hd;
      Scalar* dx = dxg.data() + i * g3;
      Scalar* dr = dhg.data() + i * g3;
      for (Index j = 0; j < hd; ++j) {
        const Scalar d = (gi[j] + du_carry[j]) + dw_carry[j];
        const Scalar dac = (d - d * u[j]) * (1.0 - c[j] * c[j]);
        const Scalar dar = dac * hgc[j] * r[j] * (1.0 - r[j]);
        const Scalar dau = d * (hp[j] - c[j]) * u[j] * (1.0 - u[j]);
        dx[j] = dar;
        dr[j] = dar;
        dx[hd + j] = dau;
        dr[hd + j] = dau;
        dx[2 * hd + j] = dac;
        dr[2 * hd + j] = dac * r[j];
        du_carry[j] = d * u[j];
      }
    }
    if (t > 0 || par[1]->requires_grad)
      kernels::GemmNT(b, g3, hd, dhg.data() + t * b * g3, wh.data(),
                      carry_w.data());
  }
  if (par[0]->requires_grad) {
    Tensor gx = Tensor::Uninit(x.shape());
    kernels::GemmNT(m, g3, in, dxg.data(), wx.data(), gx.data());
    par[0]->AccumulateGrad(gx);
  }
  if (par[1]->requires_grad) {
    // Two accumulations, as the chain's Sub and MatMul nodes made them.
    par[1]->AccumulateGrad(carry_u);
    par[1]->AccumulateGrad(carry_w);
  }
  if (par[2]->requires_grad) {
    Tensor gw = Tensor::Uninit(wx.shape());
    kernels::GemmTN(in, m, g3, x.data(), dxg.data(), gw.data());
    par[2]->AccumulateGrad(gw);
  }
  if (par[3]->requires_grad) par[3]->AccumulateGrad(dxg.ColSums());
  if (par[4]->requires_grad) {
    // H_prev: the state entering each step, [h0; states of steps 0..T-2].
    Tensor hprev = Tensor::Uninit(Shape{m, hd});
    std::copy_n(h0.data(), b * hd, hprev.data());
    std::copy_n(hs, (m - b) * hd, hprev.data() + b * hd);
    Tensor gw = Tensor::Uninit(wh.shape());
    kernels::GemmTN(hd, m, g3, hprev.data(), dhg.data(), gw.data());
    par[4]->AccumulateGrad(gw);
  }
  if (par[5]->requires_grad) par[5]->AccumulateGrad(dhg.ColSums());
}

}  // namespace

ag::Var GruCell::Scan(const ag::Var& x, const ag::Var& h0) const {
  const Index b = h0.rows(), hd = hidden_size_, g3 = 3 * hd, in = x.cols();
  DIFFODE_CHECK_EQ(h0.cols(), hd);
  DIFFODE_CHECK_EQ(in, x_gates_->in_features());
  DIFFODE_CHECK_GT(b, 0);
  DIFFODE_CHECK_EQ(x.rows() % b, 0);
  const Index m = x.rows(), steps = m / b;
  const ag::Var& wx = x_gates_->weight();
  const ag::Var& bx = x_gates_->bias();
  const ag::Var& wh = h_gates_->weight();
  const ag::Var& bh = h_gates_->bias();
  // The input half of every gate, for all steps at once.
  Tensor xg = Tensor::Uninit(Shape{m, g3});
  kernels::Gemm(m, in, g3, x.value().data(), wx.value().data(), xg.data());
  AddBias(m, g3, bx.value().data(), xg.data());
  const bool record = ag::GradMode::IsEnabled();
  ag::TapeArena* arena = record ? ag::TapeArena::Active() : nullptr;
  const std::size_t saved_size = static_cast<std::size_t>(m * 4 * hd);
  // Per step: the recurrent half hg (B x 3H), then, with nothing recorded,
  // the gates r, u, c (B x H each) as plain scratch.
  Tensor scratch = Tensor::Uninit(Shape{1, b * g3 + (record ? 0 : b * g3)});
  Scalar* hg = scratch.data();
  GruRecord* rec = nullptr;
  std::shared_ptr<HeapGruRecord> owned;
  Scalar* saved = nullptr;
  if (arena != nullptr) {
    saved = static_cast<Scalar*>(
        arena->Allocate(saved_size * sizeof(Scalar), alignof(Scalar)));
    rec = ::new (arena->Allocate(sizeof(GruRecord), alignof(GruRecord)))
        GruRecord{b, saved};
  } else if (record) {
    owned = std::make_shared<HeapGruRecord>();
    owned->saved.resize(saved_size);
    saved = owned->saved.data();
    owned->rec = GruRecord{b, saved};
  }
  Tensor out = Tensor::Uninit(Shape{m, hd});
  for (Index t = 0; t < steps; ++t) {
    const Scalar* hp =
        t == 0 ? h0.value().data() : out.data() + (t - 1) * b * hd;
    kernels::Gemm(b, hd, g3, hp, wh.value().data(), hg);
    AddBias(b, g3, bh.value().data(), hg);
    Scalar* gates = record ? saved + t * 4 * b * hd : hg + b * g3;
    GruGateRows(b, hd, xg.data() + t * b * g3, hg, hp, gates, gates + b * hd,
                gates + 2 * b * hd, out.data() + t * b * hd);
    if (record)
      for (Index k = 0; k < b; ++k)
        std::copy_n(hg + k * g3 + 2 * hd, hd, gates + (3 * b + k) * hd);
  }
  if (!record) return ag::Var(std::move(out));
  if (arena != nullptr) {
    return ag::detail::MakeNode(
        std::move(out), {&x, &h0, &wx, &bx, &wh, &bh},
        [rec](ag::Node& node) { GruBackward(node, *rec); });
  }
  return ag::detail::MakeNode(
      std::move(out), {&x, &h0, &wx, &bx, &wh, &bh},
      [owned = std::move(owned)](ag::Node& node) {
        GruBackward(node, owned->rec);
      });
}

}  // namespace diffode::nn
