#include "autograd/ops_linalg.h"

#include "autograd/ops.h"
#include "linalg/lu.h"

namespace diffode::ag {
namespace {

Var MakeInverseNode(const Var& a, Tensor inv) {
  return detail::MakeNode(std::move(inv), {&a}, [](Node& n) {
    // d/dA of A^{-1}: dA = -A^{-T} G A^{-T}, via the transpose-free GEMMs.
    const Tensor& inv = n.value;
    Tensor ga = inv.TransposedMatMul(n.grad).MatMulTransposed(inv) * -1.0;
    n.parents[0]->AccumulateGrad(ga);
  });
}

}  // namespace

Var Inverse(const Var& a) {
  DIFFODE_CHECK_EQ(a.rows(), a.cols());
  return MakeInverseNode(a, linalg::Inverse(a.value()));
}

Var RidgeInverse(const Var& a, Scalar ridge) {
  DIFFODE_CHECK_EQ(a.rows(), a.cols());
  Tensor reg = a.value();
  for (Index i = 0; i < reg.rows(); ++i) reg.at(i, i) += ridge;
  // The ridge shifts only the forward value; d(A + rI)/dA = I, so the
  // inverse-gradient formula applies unchanged with the regularized inverse.
  return MakeInverseNode(a, linalg::Inverse(reg));
}

}  // namespace diffode::ag
