#include "linalg/lu.h"

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
  for (Index k = 0; k < n; ++k) {
    // Partial pivoting.
    Index pivot = k;
    Scalar best = std::fabs(lu.at(k, k));
    for (Index i = k + 1; i < n; ++i) {
      const Scalar v = std::fabs(lu.at(i, k));
      if (v > best) {
        best = v;
        pivot = i;
      }
    }
    if (!(best > min_pivot)) return false;
    if (pivot != k) {
      for (Index j = 0; j < n; ++j) std::swap(lu.at(k, j), lu.at(pivot, j));
      for (Index j = 0; j < x.cols(); ++j) std::swap(x.at(k, j), x.at(pivot, j));
    }
    const Scalar inv = 1.0 / lu.at(k, k);
    for (Index i = k + 1; i < n; ++i) {
      const Scalar factor = lu.at(i, k) * inv;
      if (factor == 0.0) continue;
      lu.at(i, k) = factor;
      for (Index j = k + 1; j < n; ++j) lu.at(i, j) -= factor * lu.at(k, j);
      for (Index j = 0; j < x.cols(); ++j) x.at(i, j) -= factor * x.at(k, j);
    }
  }
  // Back substitution.
  for (Index c = 0; c < x.cols(); ++c) {
    for (Index i = n - 1; i >= 0; --i) {
      Scalar s = x.at(i, c);
      for (Index j = i + 1; j < n; ++j) s -= lu.at(i, j) * x.at(j, c);
      x.at(i, c) = s / lu.at(i, i);
    }
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
