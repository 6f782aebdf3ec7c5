#include "linalg/pinv.h"

#include <algorithm>

#include "linalg/svd.h"

namespace diffode::linalg {

Tensor PInverse(const Tensor& a, Scalar tol) {
  const bool wide = a.rows() < a.cols();
  const Tensor work = wide ? a.Transposed() : a;
  SvdResult svd = Svd(work);
  const Index n = svd.sigma.numel();
  const Scalar cutoff = tol * std::max(svd.sigma.Max(), Scalar{0});
  // pinv(work) = V diag(1/sigma) Uᵀ with small sigmas dropped.
  Tensor vs = svd.v;  // n x n, scale columns by 1/sigma
  for (Index j = 0; j < n; ++j) {
    const Scalar s = svd.sigma[j];
    const Scalar inv = s > cutoff ? 1.0 / s : 0.0;
    for (Index i = 0; i < n; ++i) vs.at(i, j) *= inv;
  }
  Tensor pinv_work = vs.MatMul(svd.u.Transposed());
  return wide ? pinv_work.Transposed() : pinv_work;
}

}  // namespace diffode::linalg
