#ifndef DIFFODE_AUTOGRAD_OPS_H_
#define DIFFODE_AUTOGRAD_OPS_H_

#include <initializer_list>
#include <utility>
#include <vector>

#include "autograd/variable.h"

namespace diffode::ag {

// Differentiable operations over Vars. Each builds a fresh tape node whose
// backward_fn scatters gradients into the operands. Scalars produced by
// reductions are 1x1 matrices so every Var stays 2-D.

// Elementwise (identical shapes).
Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);

// Scalar (compile-time constant) forms.
Var AddScalar(const Var& a, Scalar s);
Var MulScalar(const Var& a, Scalar s);
Var Neg(const Var& a);

// a * s where s is a 1x1 Var.
Var MulByScalarVar(const Var& a, const Var& s);

// Matrix ops (2-D).
Var MatMul(const Var& a, const Var& b);
// a * b^T without materializing the transpose (attention scores Q K^T).
Var MatMulNT(const Var& a, const Var& b);
Var Transpose(const Var& a);
Var Reshape(const Var& a, Shape shape);

// Broadcast: each row of m (r x c) plus the row vector v (1 x c).
Var AddRowVec(const Var& m, const Var& v);

// Row-wise softmax of a 2-D tensor.
Var Softmax(const Var& a);

// Elementwise nonlinearities.
Var Tanh(const Var& a);
Var Sigmoid(const Var& a);
Var Relu(const Var& a);
Var Exp(const Var& a);
Var Square(const Var& a);
Var Sin(const Var& a);

// Fused hot-path ops. Each computes the same quantity as the op chain it
// replaces but builds ONE tape node and runs one elementwise pass, so the
// ODE unroll's per-step tape stays small.
// a + b in a single pass (no copy-then-axpy).
Var AddInPlace(const Var& a, const Var& b);
// y + h*k in a single pass: the Euler / midpoint state update.
Var AxpyFused(const Var& y, const Var& k, Scalar h);
// y + h/6 * (k1 + 2 k2 + 2 k3 + k4): the RK4 combination step.
Var Rk4Combine(const Var& y, const Var& k1, const Var& k2, const Var& k3,
               const Var& k4, Scalar h);
// tanh(x·W + b) with b a 1 x c row vector: the tanh-MLP hidden-layer step.
Var TanhLinear(const Var& x, const Var& w, const Var& b);

namespace detail {

// Lets MakeNodeFrom iterate ranges of Vars and of Var pointers alike.
inline const Var& AsVar(const Var& v) { return v; }
inline const Var& AsVar(const Var* v) { return *v; }

// The node factory behind every op here, for ops defined elsewhere (the
// fused DHS ops of core/dhs.h). Builds a node with the given forward value
// and parents; requires_grad is inherited from any parent. Nodes come from
// the thread's tape arena when a scope is active (AllocateNode); parents are
// taken as an initializer_list of POINTERS or as an existing vector, so op
// calls never materialize a temporary std::vector<Var> and never copy a Var
// handle — a brace list of Vars would refcount every parent per op, paid
// even on the no-grad path where the list is thrown away unread. With grad
// disabled the node is skipped entirely: the result is a value-only Var,
// parents are not captured, and the backward closure never materializes.
// The closure stays in its lambda type until a node actually needs it —
// converting to Node::backward_fn (std::function) eagerly would
// heap-allocate closures with tensor captures even on paths that
// immediately discard them. Backward closures scatter through
// Node::AccumulateGrad.
template <typename ParentRange, typename BackwardFn>
Var MakeNodeFrom(Tensor value, const ParentRange& parents,
                 BackwardFn&& backward_fn) {
  if (!GradMode::IsEnabled()) return Var(std::move(value));
  auto node = AllocateNode();
  node->value = std::move(value);
  node->parents.reserve(parents.size());
  bool needs = false;
  for (const auto& raw : parents) {
    const Var& p = AsVar(raw);
    DIFFODE_CHECK(p.defined());
    std::shared_ptr<Node> pn = p.EnsureNode();
    needs = needs || pn->requires_grad || pn->backward_fn;
    node->parents.push_back(std::move(pn));
  }
  node->requires_grad = needs;
  if (needs) node->backward_fn = std::forward<BackwardFn>(backward_fn);
  return Var(std::move(node));
}

template <typename BackwardFn>
Var MakeNode(Tensor value, std::initializer_list<const Var*> parents,
             BackwardFn&& backward_fn) {
  return MakeNodeFrom(std::move(value), parents,
                      std::forward<BackwardFn>(backward_fn));
}

template <typename BackwardFn>
Var MakeNode(Tensor value, const std::vector<Var>& parents,
             BackwardFn&& backward_fn) {
  return MakeNodeFrom(std::move(value), parents,
                      std::forward<BackwardFn>(backward_fn));
}

// The forward arithmetic of AxpyFused / Rk4Combine as plain range functions.
// The lockstep batched stepper (ode/lockstep.cc) calls these per state row so
// a batched step is the same machine code — hence bitwise identical — as the
// per-sequence unroll, independent of compiler FP-contraction choices.
void AxpyForward(Index n, const Scalar* y, const Scalar* k, Scalar h,
                 Scalar* out);
void Rk4CombineForward(Index n, const Scalar* y, const Scalar* k1,
                       const Scalar* k2, const Scalar* k3, const Scalar* k4,
                       Scalar h, Scalar* out);
}  // namespace detail

// Reductions to a 1x1 Var.
Var Sum(const Var& a);
Var Mean(const Var& a);
Var Dot(const Var& a, const Var& b);

// Structural ops.
Var ConcatCols(const std::vector<Var>& parts);
Var ConcatRows(const std::vector<Var>& parts);
Var SliceCols(const Var& a, Index begin, Index count);
Var SliceRows(const Var& a, Index begin, Index count);

// Losses (targets are plain tensors / labels, not differentiated).
// Mean squared error over all elements; `mask` (same shape, 0/1) restricts
// the average to observed entries when provided.
Var MseLoss(const Var& pred, const Tensor& target);
Var MaskedMseLoss(const Var& pred, const Tensor& target, const Tensor& mask);
// Mean cross-entropy of row-wise softmax(logits) against integer labels.
Var SoftmaxCrossEntropy(const Var& logits, const std::vector<Index>& labels);

// Convenience operators.
inline Var operator+(const Var& a, const Var& b) { return Add(a, b); }
inline Var operator-(const Var& a, const Var& b) { return Sub(a, b); }
inline Var operator*(const Var& a, const Var& b) { return Mul(a, b); }
inline Var operator*(const Var& a, Scalar s) { return MulScalar(a, s); }
inline Var operator*(Scalar s, const Var& a) { return MulScalar(a, s); }
inline Var operator+(const Var& a, Scalar s) { return AddScalar(a, s); }
inline Var operator-(const Var& a) { return Neg(a); }

}  // namespace diffode::ag

#endif  // DIFFODE_AUTOGRAD_OPS_H_
