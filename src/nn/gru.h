#ifndef DIFFODE_NN_GRU_H_
#define DIFFODE_NN_GRU_H_

#include <memory>
#include <vector>

#include "nn/linear.h"
#include "tensor/kernels.h"

namespace diffode::nn {

// One GRU gate pass over e rows, PyTorch gate convention:
//   r = sigmoid(xg_r + hg_r), u = sigmoid(xg_u + hg_u),
//   c = tanh(xg_c + r * hg_c), h' = c + u * (h - c),
// from the gate pre-activations xg = x W_x + b_x and hg = h W_h + b_h
// (e x 3H, [r | u | c] blocks of H per row) and the previous states h
// (e x H). Writes r, u and c (e x H each; the tape node saves them, the
// serving mirror passes scratch) and h' into out (e x H). Each gate
// nonlinearity is one map over all e·H values; the maps are elementwise,
// so every value is the one a row-at-a-time pass computes. The one step
// body of GruCell's tape node and of FrozenGru<T>, so training and serving
// run the same arithmetic in the same order.
template <typename T>
void GruGateRows(Index e, Index H, const T* xg, const T* hg, const T* h,
                 T* r, T* u, T* c, T* out) {
  const Index g3 = 3 * H;
  for (Index i = 0; i < e; ++i)
    for (Index j = 0; j < H; ++j)
      r[i * H + j] = xg[i * g3 + j] + hg[i * g3 + j];
  kernels::MapSigmoid(e * H, r, r);
  for (Index i = 0; i < e; ++i)
    for (Index j = 0; j < H; ++j)
      c[i * H + j] =
          xg[i * g3 + 2 * H + j] + r[i * H + j] * hg[i * g3 + 2 * H + j];
  kernels::MapTanh(e * H, c, c);
  for (Index i = 0; i < e; ++i)
    for (Index j = 0; j < H; ++j)
      u[i * H + j] = xg[i * g3 + H + j] + hg[i * g3 + H + j];
  kernels::MapSigmoid(e * H, u, u);
  for (Index k = 0; k < e * H; ++k) out[k] = c[k] + u[k] * (h[k] - c[k]);
}

// Gated recurrent unit cell (Cho et al. 2014) with the gates of GruGateRows.
// Each call is ONE tape node with a hand-derived backward (BPTT over the
// gates saved in the thread's TapeArena), not an op chain.
class GruCell : public Module {
 public:
  GruCell(Index input_size, Index hidden_size, Rng& rng)
      : hidden_size_(hidden_size),
        x_gates_(std::make_unique<Linear>(input_size, 3 * hidden_size, rng)),
        h_gates_(std::make_unique<Linear>(hidden_size, 3 * hidden_size, rng)) {
  }

  Index hidden_size() const { return hidden_size_; }

  // One step over b rows. x: (b x input), h: (b x hidden) -> (b x hidden).
  ag::Var Forward(const ag::Var& x, const ag::Var& h) const {
    DIFFODE_CHECK_EQ(x.rows(), h.rows());
    return Scan(x, h);
  }

  // The recurrence over T = x.rows() / h0.rows() steps of B = h0.rows()
  // sequences: rows t·B .. t·B + B - 1 of x are step t's inputs, and the
  // same rows of the result are step t's states. x: (T·B x input),
  // h0: (B x hidden) -> every hidden state (T·B x hidden).
  ag::Var Scan(const ag::Var& x, const ag::Var& h0) const;

  ag::Var InitialState(Index batch = 1) const {
    return ag::Constant(Tensor(Shape{batch, hidden_size_}));
  }

  void CollectParams(std::vector<ag::Var>* out) const override {
    x_gates_->CollectParams(out);
    h_gates_->CollectParams(out);
  }

  // Gate access for frozen serving snapshots (nn/frozen.h).
  const Linear& x_gates() const { return *x_gates_; }
  const Linear& h_gates() const { return *h_gates_; }

 private:
  Index hidden_size_;
  std::unique_ptr<Linear> x_gates_;
  std::unique_ptr<Linear> h_gates_;
};

}  // namespace diffode::nn

#endif  // DIFFODE_NN_GRU_H_
