#include "linalg/lu.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace diffode::linalg {

bool TrySolve(const Tensor& a, const Tensor& b, Scalar min_pivot,
              Tensor* x_out) {
  const Index n = a.rows();
  DIFFODE_CHECK_EQ(a.cols(), n);
  DIFFODE_CHECK_EQ(b.rows(), n);
  DIFFODE_CHECK(x_out != nullptr);
  Tensor lu = a;
  Tensor x = b;
  const Index nc = x.cols();
  Scalar* const lp = lu.data();
  Scalar* const xp = x.data();
  for (Index k = 0; k < n; ++k) {
    // Partial pivoting.
    Index pivot = k;
    Scalar best = std::fabs(lp[k * n + k]);
    for (Index i = k + 1; i < n; ++i) {
      const Scalar v = std::fabs(lp[i * n + k]);
      if (v > best) {
        best = v;
        pivot = i;
      }
    }
    if (!(best > min_pivot)) return false;
    Scalar* const lk = lp + k * n;
    Scalar* const xk = xp + k * nc;
    if (pivot != k) {
      std::swap_ranges(lk, lk + n, lp + pivot * n);
      std::swap_ranges(xk, xk + nc, xp + pivot * nc);
    }
    const Scalar inv = 1.0 / lk[k];
    for (Index i = k + 1; i < n; ++i) {
      Scalar* const li = lp + i * n;
      const Scalar factor = li[k] * inv;
      if (factor == 0.0) continue;
      li[k] = factor;
      for (Index j = k + 1; j < n; ++j) li[j] -= factor * lk[j];
      Scalar* const xi = xp + i * nc;
      for (Index j = 0; j < nc; ++j) xi[j] -= factor * xk[j];
    }
  }
  // Back substitution, right-hand-side columns innermost: each x(i, c) still
  // subtracts lu(i, j) x(j, c) for j = i+1 .. n-1 in order, then divides.
  for (Index i = n - 1; i >= 0; --i) {
    const Scalar* const li = lp + i * n;
    Scalar* const xi = xp + i * nc;
    for (Index j = i + 1; j < n; ++j) {
      const Scalar lij = li[j];
      const Scalar* const xj = xp + j * nc;
      for (Index c = 0; c < nc; ++c) xi[c] -= lij * xj[c];
    }
    const Scalar diag = li[i];
    for (Index c = 0; c < nc; ++c) xi[c] /= diag;
  }
  *x_out = std::move(x);
  return true;
}

Tensor Solve(const Tensor& a, const Tensor& b) {
  Tensor x;
  DIFFODE_CHECK_MSG(TrySolve(a, b, 1e-300, &x), "singular matrix in Solve");
  return x;
}

Tensor Inverse(const Tensor& a) { return Solve(a, Tensor::Eye(a.rows())); }

}  // namespace diffode::linalg
