#include "autograd/ops.h"

#include <cmath>

#include "tensor/kernels.h"

namespace diffode::ag {
namespace {

using detail::MakeNode;

void Accumulate(const std::shared_ptr<Node>& n, const Tensor& g) {
  n->AccumulateGrad(g);
}

// Fused elementwise derivative scatter: parent_grad += zip(g, v).
template <typename F>
void AccumulateZip(const std::shared_ptr<Node>& n, const Tensor& g,
                   const Tensor& v, F fn) {
  Tensor out = Tensor::Uninit(g.shape());
  kernels::Zip(g.numel(), g.data(), v.data(), out.data(), fn);
  n->AccumulateGrad(out);
}

}  // namespace

Var Add(const Var& a, const Var& b) {
  return MakeNode(a.value() + b.value(), {&a, &b}, [](Node& n) {
    Accumulate(n.parents[0], n.grad);
    Accumulate(n.parents[1], n.grad);
  });
}

Var Sub(const Var& a, const Var& b) {
  return MakeNode(a.value() - b.value(), {&a, &b}, [](Node& n) {
    Accumulate(n.parents[0], n.grad);
    Accumulate(n.parents[1], -n.grad);
  });
}

Var Mul(const Var& a, const Var& b) {
  return MakeNode(a.value() * b.value(), {&a, &b}, [](Node& n) {
    AccumulateZip(n.parents[0], n.grad, n.parents[1]->value,
                  [](Scalar g, Scalar v) { return g * v; });
    AccumulateZip(n.parents[1], n.grad, n.parents[0]->value,
                  [](Scalar g, Scalar v) { return g * v; });
  });
}

Var AddScalar(const Var& a, Scalar s) {
  return MakeNode(a.value() + s, {&a},
                  [](Node& n) { Accumulate(n.parents[0], n.grad); });
}

Var MulScalar(const Var& a, Scalar s) {
  return MakeNode(a.value() * s, {&a},
                  [s](Node& n) { Accumulate(n.parents[0], n.grad * s); });
}

Var Neg(const Var& a) {
  return MakeNode(-a.value(), {&a},
                  [](Node& n) { Accumulate(n.parents[0], -n.grad); });
}

Var MulByScalarVar(const Var& a, const Var& s) {
  DIFFODE_CHECK_EQ(s.value().numel(), 1);
  const Scalar sv = s.value().item();
  return MakeNode(a.value() * sv, {&a, &s}, [](Node& n) {
    const Scalar sv = n.parents[1]->value.item();
    Accumulate(n.parents[0], n.grad * sv);
    Tensor gs(n.parents[1]->value.shape());
    gs[0] = n.grad.Dot(n.parents[0]->value);
    Accumulate(n.parents[1], gs);
  });
}

Var MatMul(const Var& a, const Var& b) {
  return MakeNode(a.value().MatMul(b.value()), {&a, &b}, [](Node& n) {
    const Tensor& av = n.parents[0]->value;
    const Tensor& bv = n.parents[1]->value;
    // dA = G B^T, dB = A^T G — transpose-free GEMM variants.
    Accumulate(n.parents[0], n.grad.MatMulTransposed(bv));
    Accumulate(n.parents[1], av.TransposedMatMul(n.grad));
  });
}

Var MatMulNT(const Var& a, const Var& b) {
  return MakeNode(a.value().MatMulTransposed(b.value()), {&a, &b}, [](Node& n) {
    const Tensor& av = n.parents[0]->value;
    const Tensor& bv = n.parents[1]->value;
    // C = A B^T: dA = G B, dB = G^T A.
    Accumulate(n.parents[0], n.grad.MatMul(bv));
    Accumulate(n.parents[1], n.grad.TransposedMatMul(av));
  });
}

Var Transpose(const Var& a) {
  return MakeNode(a.value().Transposed(), {&a}, [](Node& n) {
    Accumulate(n.parents[0], n.grad.Transposed());
  });
}

Var Reshape(const Var& a, Shape shape) {
  return MakeNode(a.value().Reshaped(std::move(shape)), {&a}, [](Node& n) {
    Accumulate(n.parents[0], n.grad.Reshaped(n.parents[0]->value.shape()));
  });
}

Var AddRowVec(const Var& m, const Var& v) {
  DIFFODE_CHECK_EQ(m.cols(), v.cols());
  DIFFODE_CHECK_EQ(v.rows(), 1);
  Tensor out = m.value();
  {
    const Index r = out.rows();
    const Index c = out.cols();
    Scalar* o = out.data();
    const Scalar* vv = v.value().data();
    for (Index i = 0; i < r; ++i)
      for (Index j = 0; j < c; ++j) o[i * c + j] += vv[j];
  }
  return MakeNode(std::move(out), {&m, &v}, [](Node& n) {
    Accumulate(n.parents[0], n.grad);
    Accumulate(n.parents[1], n.grad.ColSums());
  });
}

Var Softmax(const Var& a) {
  const Tensor& x = a.value();
  Tensor y = Tensor::Uninit(x.shape());
  kernels::SoftmaxRows(x.rows(), x.cols(), x.data(), y.data());
  return MakeNode(std::move(y), {&a}, [](Node& n) {
    // Per row: dx = y .* (g - (g . y))
    const Tensor& y = n.value;
    const Index r = y.rows();
    const Index c = y.cols();
    Tensor gx = Tensor::Uninit(y.shape());
    const Scalar* yp = y.data();
    const Scalar* gp = n.grad.data();
    Scalar* gxp = gx.data();
    for (Index i = 0; i < r; ++i) {
      const Scalar* yi = yp + i * c;
      const Scalar* gi = gp + i * c;
      Scalar* gxi = gxp + i * c;
      Scalar gy = 0.0;
      for (Index j = 0; j < c; ++j) gy += gi[j] * yi[j];
      for (Index j = 0; j < c; ++j) gxi[j] = yi[j] * (gi[j] - gy);
    }
    Accumulate(n.parents[0], gx);
  });
}

namespace {

// Shared shape for unary elementwise ops: forward maps x through Fwd, the
// backward multiplies the incoming gradient elementwise via Bwd(g, v) where
// v is the saved forward OUTPUT (value-based derivative).
template <typename Fwd, typename Bwd>
Var UnaryFromValue(const Var& a, Fwd fwd, Bwd bwd) {
  const Tensor& x = a.value();
  Tensor y = Tensor::Uninit(x.shape());
  kernels::Map(x.numel(), x.data(), y.data(), fwd);
  return MakeNode(std::move(y), {&a}, [bwd](Node& n) {
    AccumulateZip(n.parents[0], n.grad, n.value, bwd);
  });
}

// As above but the derivative reads the forward INPUT.
template <typename Fwd, typename Bwd>
Var UnaryFromInput(const Var& a, Fwd fwd, Bwd bwd) {
  const Tensor& x = a.value();
  Tensor y = Tensor::Uninit(x.shape());
  kernels::Map(x.numel(), x.data(), y.data(), fwd);
  return MakeNode(std::move(y), {&a}, [bwd](Node& n) {
    AccumulateZip(n.parents[0], n.grad, n.parents[0]->value, bwd);
  });
}

}  // namespace

Var Tanh(const Var& a) {
  return UnaryFromValue(a, kernels::ops::Tanh{},
                        [](Scalar g, Scalar y) { return g * (1.0 - y * y); });
}

Var Sigmoid(const Var& a) {
  return UnaryFromValue(a, kernels::ops::Sigmoid{},
                        [](Scalar g, Scalar y) { return g * y * (1.0 - y); });
}

Var Relu(const Var& a) {
  return UnaryFromInput(
      a, [](Scalar x) { return x > 0 ? x : 0.0; },
      [](Scalar g, Scalar x) { return x > 0 ? g : 0.0; });
}

Var Exp(const Var& a) {
  return UnaryFromValue(a, kernels::ops::Exp{},
                        [](Scalar g, Scalar y) { return g * y; });
}

Var Square(const Var& a) {
  return MakeNode(a.value() * a.value(), {&a}, [](Node& n) {
    AccumulateZip(n.parents[0], n.grad, n.parents[0]->value,
                  [](Scalar g, Scalar x) { return 2.0 * g * x; });
  });
}

Var Sin(const Var& a) {
  return UnaryFromInput(
      a, [](Scalar x) { return std::sin(x); },
      [](Scalar g, Scalar x) { return g * std::cos(x); });
}

namespace {

// parent_grad += g * s without an intermediate copy-then-scale.
void AccumulateScaled(const std::shared_ptr<Node>& n, const Tensor& g,
                      Scalar s) {
  Tensor out = Tensor::Uninit(g.shape());
  kernels::Map(g.numel(), g.data(), out.data(),
               [s](Scalar x) { return x * s; });
  n->AccumulateGrad(out);
}

}  // namespace

Var AddInPlace(const Var& a, const Var& b) {
  DIFFODE_CHECK(a.value().shape() == b.value().shape());
  Tensor out = Tensor::Uninit(a.value().shape());
  kernels::Zip(out.numel(), a.value().data(), b.value().data(), out.data(),
               [](Scalar x, Scalar y) { return x + y; });
  return MakeNode(std::move(out), {&a, &b}, [](Node& n) {
    Accumulate(n.parents[0], n.grad);
    Accumulate(n.parents[1], n.grad);
  });
}

namespace detail {

void AxpyForward(Index n, const Scalar* y, const Scalar* k, Scalar h,
                 Scalar* out) {
  kernels::Zip(n, y, k, out, [h](Scalar yv, Scalar kv) { return yv + kv * h; });
}

void Rk4CombineForward(Index n, const Scalar* y, const Scalar* k1,
                       const Scalar* k2, const Scalar* k3, const Scalar* k4,
                       Scalar h, Scalar* out) {
  const Scalar h6 = h / 6.0;
  for (Index i = 0; i < n; ++i)
    out[i] = y[i] + h6 * ((k1[i] + 2.0 * k2[i]) + (2.0 * k3[i] + k4[i]));
}

}  // namespace detail

Var AxpyFused(const Var& y, const Var& k, Scalar h) {
  DIFFODE_CHECK(y.value().shape() == k.value().shape());
  Tensor out = Tensor::Uninit(y.value().shape());
  detail::AxpyForward(out.numel(), y.value().data(), k.value().data(), h,
                      out.data());
  return MakeNode(std::move(out), {&y, &k}, [h](Node& n) {
    Accumulate(n.parents[0], n.grad);
    AccumulateScaled(n.parents[1], n.grad, h);
  });
}

Var Rk4Combine(const Var& y, const Var& k1, const Var& k2, const Var& k3,
               const Var& k4, Scalar h) {
  const Shape& shape = y.value().shape();
  DIFFODE_CHECK(k1.value().shape() == shape);
  DIFFODE_CHECK(k2.value().shape() == shape);
  DIFFODE_CHECK(k3.value().shape() == shape);
  DIFFODE_CHECK(k4.value().shape() == shape);
  const Scalar h6 = h / 6.0;
  Tensor out = Tensor::Uninit(shape);
  detail::Rk4CombineForward(out.numel(), y.value().data(), k1.value().data(),
                            k2.value().data(), k3.value().data(),
                            k4.value().data(), h, out.data());
  return MakeNode(std::move(out), {&y, &k1, &k2, &k3, &k4}, [h6](Node& n) {
    Accumulate(n.parents[0], n.grad);
    AccumulateScaled(n.parents[1], n.grad, h6);
    AccumulateScaled(n.parents[2], n.grad, 2.0 * h6);
    AccumulateScaled(n.parents[3], n.grad, 2.0 * h6);
    AccumulateScaled(n.parents[4], n.grad, h6);
  });
}

Var TanhLinear(const Var& x, const Var& w, const Var& b) {
  DIFFODE_CHECK_EQ(x.cols(), w.rows());
  DIFFODE_CHECK_EQ(b.rows(), 1);
  DIFFODE_CHECK_EQ(b.cols(), w.cols());
  // y = tanh(x·W + b), built in one buffer: GEMM into it, bias and tanh
  // applied in place.
  Tensor y = x.value().MatMul(w.value());
  {
    const Index r = y.rows();
    const Index c = y.cols();
    Scalar* yp = y.data();
    const Scalar* bp = b.value().data();
    for (Index i = 0; i < r; ++i)
      for (Index j = 0; j < c; ++j) yp[i * c + j] += bp[j];
    kernels::MapTanh(r * c, yp, yp);
  }
  return MakeNode(std::move(y), {&x, &w, &b}, [](Node& n) {
    const Tensor& xv = n.parents[0]->value;
    const Tensor& wv = n.parents[1]->value;
    // gpre = g ⊙ (1 - y²); then gx = gpre·Wᵀ, gW = xᵀ·gpre, gb = colsum.
    Tensor gpre = Tensor::Uninit(n.value.shape());
    kernels::Zip(gpre.numel(), n.grad.data(), n.value.data(), gpre.data(),
                 [](Scalar g, Scalar yv) { return g * (1.0 - yv * yv); });
    Accumulate(n.parents[0], gpre.MatMulTransposed(wv));
    Accumulate(n.parents[1], xv.TransposedMatMul(gpre));
    Accumulate(n.parents[2], gpre.ColSums());
  });
}

Var Sum(const Var& a) {
  Tensor out(Shape{1, 1});
  out[0] = a.value().Sum();
  return MakeNode(std::move(out), {&a}, [](Node& n) {
    Accumulate(n.parents[0],
               Tensor::Full(n.parents[0]->value.shape(), n.grad[0]));
  });
}

Var Mean(const Var& a) {
  const Scalar inv = 1.0 / static_cast<Scalar>(a.value().numel());
  Tensor out(Shape{1, 1});
  out[0] = a.value().Sum() * inv;
  return MakeNode(std::move(out), {&a}, [inv](Node& n) {
    Accumulate(n.parents[0],
               Tensor::Full(n.parents[0]->value.shape(), n.grad[0] * inv));
  });
}

Var Dot(const Var& a, const Var& b) {
  DIFFODE_CHECK_EQ(a.value().numel(), b.value().numel());
  Tensor out(Shape{1, 1});
  out[0] = a.value().Dot(b.value());
  return MakeNode(std::move(out), {&a, &b}, [](Node& n) {
    const Scalar g = n.grad[0];
    Accumulate(n.parents[0],
               (n.parents[1]->value * g).Reshaped(n.parents[0]->value.shape()));
    Accumulate(n.parents[1],
               (n.parents[0]->value * g).Reshaped(n.parents[1]->value.shape()));
  });
}

Var ConcatCols(const std::vector<Var>& parts) {
  DIFFODE_CHECK(!parts.empty());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  std::vector<Index> widths;
  for (const auto& p : parts) {
    values.push_back(p.value());
    widths.push_back(p.cols());
  }
  return MakeNode(Tensor::ConcatCols(values), parts,
                  [widths = std::move(widths)](Node& n) {
                    const Index total = n.grad.cols();
                    const Scalar* gp = n.grad.data();
                    Index c = 0;
                    for (std::size_t k = 0; k < widths.size(); ++k) {
                      Tensor g = Tensor::Uninit(n.parents[k]->value.shape());
                      const Index r = g.rows();
                      const Index w = widths[k];
                      Scalar* out = g.data();
                      for (Index i = 0; i < r; ++i)
                        for (Index j = 0; j < w; ++j)
                          out[i * w + j] = gp[i * total + c + j];
                      Accumulate(n.parents[k], g);
                      c += w;
                    }
                  });
}

Var ConcatRows(const std::vector<Var>& parts) {
  DIFFODE_CHECK(!parts.empty());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  std::vector<Index> heights;
  for (const auto& p : parts) {
    values.push_back(p.value());
    heights.push_back(p.rows());
  }
  return MakeNode(Tensor::ConcatRows(values), parts,
                  [heights = std::move(heights)](Node& n) {
                    Index r = 0;
                    for (std::size_t k = 0; k < heights.size(); ++k) {
                      Accumulate(n.parents[k], n.grad.Rows(r, heights[k]));
                      r += heights[k];
                    }
                  });
}

Var SliceCols(const Var& a, Index begin, Index count) {
  DIFFODE_CHECK_GE(begin, 0);
  DIFFODE_CHECK_LE(begin + count, a.cols());
  const Index r = a.rows();
  const Index total = a.cols();
  Tensor out = Tensor::Uninit(Shape{r, count});
  {
    const Scalar* src = a.value().data();
    Scalar* dst = out.data();
    for (Index i = 0; i < r; ++i)
      for (Index j = 0; j < count; ++j)
        dst[i * count + j] = src[i * total + begin + j];
  }
  return MakeNode(std::move(out), {&a}, [begin, count](Node& n) {
    Tensor g(n.parents[0]->value.shape());
    const Index r = n.grad.rows();
    const Index total = g.cols();
    const Scalar* gp = n.grad.data();
    Scalar* out = g.data();
    for (Index i = 0; i < r; ++i)
      for (Index j = 0; j < count; ++j)
        out[i * total + begin + j] = gp[i * count + j];
    Accumulate(n.parents[0], g);
  });
}

Var SliceRows(const Var& a, Index begin, Index count) {
  return MakeNode(a.value().Rows(begin, count), {&a}, [begin, count](Node& n) {
    Tensor g(n.parents[0]->value.shape());
    const Index c = n.grad.cols();
    std::size_t offset = static_cast<std::size_t>(begin * c);
    const Scalar* gp = n.grad.data();
    Scalar* out = g.data() + offset;
    for (Index i = 0; i < count * c; ++i) out[i] = gp[i];
    Accumulate(n.parents[0], g);
  });
}

Var MseLoss(const Var& pred, const Tensor& target) {
  DIFFODE_CHECK(pred.value().shape() == target.shape());
  const Scalar inv = 1.0 / static_cast<Scalar>(target.numel());
  Tensor diff = pred.value() - target;
  Tensor out(Shape{1, 1});
  out[0] = diff.Dot(diff) * inv;
  return MakeNode(std::move(out), {&pred},
                  [diff = std::move(diff), inv](Node& n) {
                    Accumulate(n.parents[0], diff * (2.0 * inv * n.grad[0]));
                  });
}

Var MaskedMseLoss(const Var& pred, const Tensor& target, const Tensor& mask) {
  DIFFODE_CHECK(pred.value().shape() == target.shape());
  DIFFODE_CHECK(pred.value().shape() == mask.shape());
  Scalar count = mask.Sum();
  if (count <= 0) count = 1.0;
  const Scalar inv = 1.0 / count;
  Tensor diff = (pred.value() - target) * mask;
  Tensor out(Shape{1, 1});
  out[0] = diff.Dot(diff) * inv;
  return MakeNode(std::move(out), {&pred},
                  [diff = std::move(diff), inv](Node& n) {
                    Accumulate(n.parents[0], diff * (2.0 * inv * n.grad[0]));
                  });
}

Var SoftmaxCrossEntropy(const Var& logits, const std::vector<Index>& labels) {
  const Index b = logits.rows();
  const Index c = logits.cols();
  DIFFODE_CHECK_EQ(static_cast<Index>(labels.size()), b);
  const Tensor& x = logits.value();
  Tensor probs = Tensor::Uninit(x.shape());
  kernels::SoftmaxRows(b, c, x.data(), probs.data());
  const Scalar* pp = probs.data();
  Scalar loss = 0.0;
  for (Index i = 0; i < b; ++i) {
    const Index label = labels[static_cast<std::size_t>(i)];
    DIFFODE_CHECK_GE(label, 0);
    DIFFODE_CHECK_LT(label, c);
    loss -= std::log(std::max(pp[i * c + label], 1e-300));
  }
  Tensor out(Shape{1, 1});
  out[0] = loss / static_cast<Scalar>(b);
  return MakeNode(std::move(out), {&logits},
                  [probs = std::move(probs), labels](Node& n) {
    Tensor g = probs;
    const Scalar scale = n.grad[0] / static_cast<Scalar>(g.rows());
    const Index c = g.cols();
    Scalar* gp = g.data();
    for (Index i = 0; i < g.rows(); ++i) {
      gp[i * c + labels[static_cast<std::size_t>(i)]] -= 1.0;
      for (Index j = 0; j < c; ++j) gp[i * c + j] *= scale;
    }
    Accumulate(n.parents[0], g);
  });
}

}  // namespace diffode::ag
