#include "linalg/svd.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

namespace diffode::linalg {

SvdResult Svd(const Tensor& a) {
  const Index m = a.rows();
  const Index n = a.cols();
  DIFFODE_CHECK_GE(m, n);
  Tensor u = a;            // columns rotated into U * Sigma
  Tensor v = Tensor::Eye(n);
  const int kMaxSweeps = 60;
  const Scalar kEps = 1e-14;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool converged = true;
    for (Index p = 0; p < n - 1; ++p) {
      for (Index q = p + 1; q < n; ++q) {
        // 2x2 Gram entries for columns p, q.
        Scalar app = 0.0, aqq = 0.0, apq = 0.0;
        for (Index i = 0; i < m; ++i) {
          app += u.at(i, p) * u.at(i, p);
          aqq += u.at(i, q) * u.at(i, q);
          apq += u.at(i, p) * u.at(i, q);
        }
        if (std::fabs(apq) <= kEps * std::sqrt(app * aqq)) continue;
        converged = false;
        // Jacobi rotation zeroing the off-diagonal Gram entry.
        const Scalar tau = (aqq - app) / (2.0 * apq);
        const Scalar t = (tau >= 0 ? 1.0 : -1.0) /
                         (std::fabs(tau) + std::sqrt(1.0 + tau * tau));
        const Scalar c = 1.0 / std::sqrt(1.0 + t * t);
        const Scalar s = c * t;
        for (Index i = 0; i < m; ++i) {
          const Scalar up = u.at(i, p);
          const Scalar uq = u.at(i, q);
          u.at(i, p) = c * up - s * uq;
          u.at(i, q) = s * up + c * uq;
        }
        for (Index i = 0; i < n; ++i) {
          const Scalar vp = v.at(i, p);
          const Scalar vq = v.at(i, q);
          v.at(i, p) = c * vp - s * vq;
          v.at(i, q) = s * vp + c * vq;
        }
      }
    }
    if (converged) break;
  }
  // Column norms are the singular values; normalize U's columns.
  std::vector<Scalar> sig(static_cast<std::size_t>(n), 0.0);
  for (Index j = 0; j < n; ++j) {
    Scalar norm = 0.0;
    for (Index i = 0; i < m; ++i) norm += u.at(i, j) * u.at(i, j);
    norm = std::sqrt(norm);
    sig[static_cast<std::size_t>(j)] = norm;
    if (norm > 1e-300) {
      for (Index i = 0; i < m; ++i) u.at(i, j) /= norm;
    }
  }
  // Sort descending.
  std::vector<Index> idx(static_cast<std::size_t>(n));
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](Index x, Index y) {
    return sig[static_cast<std::size_t>(x)] > sig[static_cast<std::size_t>(y)];
  });
  SvdResult result;
  result.u = Tensor(Shape{m, n});
  result.v = Tensor(Shape{n, n});
  result.sigma = Tensor(Shape{n});
  for (Index j = 0; j < n; ++j) {
    const Index src = idx[static_cast<std::size_t>(j)];
    result.sigma[j] = sig[static_cast<std::size_t>(src)];
    for (Index i = 0; i < m; ++i) result.u.at(i, j) = u.at(i, src);
    for (Index i = 0; i < n; ++i) result.v.at(i, j) = v.at(i, src);
  }
  return result;
}

}  // namespace diffode::linalg
