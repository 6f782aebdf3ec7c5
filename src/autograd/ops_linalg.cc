#include "autograd/ops_linalg.h"

#include "autograd/ops.h"
#include "linalg/lu.h"

namespace diffode::ag {

Var RidgeInverse(const Var& a, Scalar ridge) {
  DIFFODE_CHECK_EQ(a.rows(), a.cols());
  Tensor reg = a.value();
  for (Index i = 0; i < reg.rows(); ++i) reg.at(i, i) += ridge;
  // The ridge shifts only the forward value; d(A + rI)/dA = I, so the
  // inverse-gradient formula applies unchanged with the regularized inverse.
  return detail::MakeNode(linalg::Inverse(reg), {&a}, [](Node& n) {
    // d/dA of A^{-1}: dA = -A^{-T} G A^{-T}, via the transpose-free GEMMs.
    const Tensor& inv = n.value;
    Tensor ga = inv.TransposedMatMul(n.grad).MatMulTransposed(inv) * -1.0;
    n.parents[0]->AccumulateGrad(ga);
  });
}

}  // namespace diffode::ag
