#ifndef DIFFODE_NN_FROZEN_H_
#define DIFFODE_NN_FROZEN_H_

#include <memory>
#include <vector>

#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "tensor/kernels.h"

// Frozen serving snapshots: plain-tensor, dtype-generic mirrors of the
// autograd layers, built from a Module's f64 parameters. Their forwards
// are exactly the value chains of the corresponding Module forwards (same
// kernel calls, same operand order) with no tape, no Var allocations, and
// the element type chosen at snapshot time — the layers of DIFFODE's
// lockstep serving engine at both precisions (docs/performance.md,
// "Execution batching").
//
// Snapshots are taken AFTER Module::Freeze has rounded the parameters to
// the target precision, so the Cast here never rounds twice and a
// save → load → Freeze round-trip rebuilds bit-identical snapshots.
namespace diffode::nn {

// Affine layer y = x W + b (mirror of nn::Linear::Forward).
template <typename T>
struct FrozenLinear {
  TensorT<T> w;  // in x out
  TensorT<T> b;  // 1 x out

  static FrozenLinear FromModule(const Linear& m) {
    FrozenLinear out;
    out.w = m.weight().value().template Cast<T>();
    out.b = m.bias().value().template Cast<T>();
    return out;
  }

  TensorT<T> Forward(const TensorT<T>& x) const {
    TensorT<T> y = x.MatMul(w);
    const Index cols = y.cols();
    for (Index i = 0; i < y.rows(); ++i) {
      T* row = y.data() + i * cols;
      for (Index j = 0; j < cols; ++j) row[j] += b.data()[j];
    }
    return y;
  }
};

// MLP mirror of nn::Mlp::Forward: activation between layers, none after the
// last. Only the activations the serving models use are implemented.
template <typename T>
struct FrozenMlp {
  std::vector<FrozenLinear<T>> layers;
  Activation activation = Activation::kTanh;

  static FrozenMlp FromModule(const Mlp& m) {
    FrozenMlp out;
    out.activation = m.activation();
    out.layers.reserve(m.layers().size());
    for (const auto& l : m.layers())
      out.layers.push_back(FrozenLinear<T>::FromModule(*l));
    return out;
  }

  TensorT<T> Forward(const TensorT<T>& x) const {
    TensorT<T> h = layers.front().Forward(x);
    for (std::size_t i = 1; i < layers.size(); ++i) {
      switch (activation) {
        case Activation::kTanh:
          kernels::MapTanh(h.numel(), h.data(), h.data());
          break;
        case Activation::kSigmoid:
          kernels::MapSigmoid(h.numel(), h.data(), h.data());
          break;
        case Activation::kRelu:
          for (Index j = 0; j < h.numel(); ++j)
            if (h.data()[j] < T(0)) h.data()[j] = T(0);
          break;
        case Activation::kNone:
          break;
      }
      h = layers[i].Forward(h);
    }
    return h;
  }
};

// GRU cell mirror of nn::GruCell::Forward (PyTorch gate convention):
//   r = sigmoid(xg_r + hg_r), u = sigmoid(xg_u + hg_u),
//   c = tanh(xg_c + r * hg_c), h' = c + u * (h - c).
template <typename T>
struct FrozenGru {
  Index hidden = 0;
  FrozenLinear<T> x_gates;  // in x 3H
  FrozenLinear<T> h_gates;  // H x 3H

  static FrozenGru FromModule(const GruCell& m) {
    FrozenGru out;
    out.hidden = m.hidden_size();
    out.x_gates = FrozenLinear<T>::FromModule(m.x_gates());
    out.h_gates = FrozenLinear<T>::FromModule(m.h_gates());
    return out;
  }

  // x: (b x in), h: (b x H) -> (b x H).
  TensorT<T> Forward(const TensorT<T>& x, const TensorT<T>& h) const {
    const Index bsz = x.rows();
    const Index H = hidden;
    const TensorT<T> xg = x_gates.Forward(x);  // b x 3H
    const TensorT<T> hg = h_gates.Forward(h);  // b x 3H
    TensorT<T> out = TensorT<T>::Uninit(Shape{bsz, H});
    TensorT<T> gate = TensorT<T>::Uninit(Shape{1, H});
    for (Index i = 0; i < bsz; ++i) {
      const T* xr = xg.data() + i * 3 * H;
      const T* hr = hg.data() + i * 3 * H;
      const T* hv = h.data() + i * H;
      T* o = out.data() + i * H;
      T* g = gate.data();
      // r, then c's recurrent half r * hg_c staged in `o` so one pass of
      // tanh/sigmoid kernels per gate keeps the arithmetic order fixed.
      for (Index j = 0; j < H; ++j) g[j] = xr[j] + hr[j];
      kernels::MapSigmoid(H, g, g);  // g = r
      for (Index j = 0; j < H; ++j) o[j] = xr[2 * H + j] + g[j] * hr[2 * H + j];
      kernels::MapTanh(H, o, o);  // o = c
      for (Index j = 0; j < H; ++j) g[j] = xr[H + j] + hr[H + j];
      kernels::MapSigmoid(H, g, g);  // g = u
      for (Index j = 0; j < H; ++j) o[j] = o[j] + g[j] * (hv[j] - o[j]);
    }
    return out;
  }
};

}  // namespace diffode::nn

#endif  // DIFFODE_NN_FROZEN_H_
