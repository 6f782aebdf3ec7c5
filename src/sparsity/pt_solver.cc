#include "sparsity/pt_solver.h"

#include <cmath>
#include <vector>

#include "linalg/lu.h"
#include "linalg/pinv.h"

namespace diffode::sparsity {

Tensor RecoverZReference(const Tensor& z, const Tensor& p, const Tensor& h2) {
  const Index n = z.rows();
  const Index d = z.cols();
  DIFFODE_CHECK_EQ(p.numel(), n);
  // M = J_{n,1} p - I_n.
  Tensor m(Shape{n, n});
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) m.at(i, j) = p[j] - (i == j ? 1.0 : 0.0);
  }
  Tensor m_pinv = linalg::PInverse(m);
  Tensor proj = Tensor::Eye(n) - m.MatMul(m_pinv);  // I - M M†
  Tensor a_h = h2.Reshaped(Shape{1, n}).MatMul(proj) -
               Tensor::Full(Shape{1, n}, 1.0);
  Tensor zt_pinv = linalg::PInverse(z.Transposed());  // n x d
  return a_h.MatMul(zt_pinv) * std::sqrt(static_cast<Scalar>(d));
}

Tensor MaxHoyerExactKkt(const Tensor& z, const Tensor& zt_pinv,
                        const Tensor& s) {
  const Index n = z.rows();
  DIFFODE_CHECK_LE(n, 20);
  DIFFODE_CHECK(zt_pinv.shape() == z.shape());
  Tensor b = s.Reshaped(Shape{1, z.cols()})
                 .MatMul(zt_pinv.Transposed());  // 1 x n
  // A_p (n x n), built explicitly for the small-n oracle.
  Tensor ap = Tensor::Eye(n) - zt_pinv.MatMul(z.Transposed());
  const Tensor aj = ap.RowSums();  // A_p J, n x 1
  const Scalar jaj = aj.Sum();
  constexpr Scalar kTol = 1e-9;

  Tensor best;
  Scalar best_obj = -1.0;
  const std::uint64_t limit = std::uint64_t{1} << n;
  for (std::uint64_t mask = 0; mask < limit; ++mask) {
    // Active set: indices forced to p_i = 0 (mu_i may be non-zero).
    std::vector<Index> active;
    for (Index i = 0; i < n; ++i)
      if (mask & (std::uint64_t{1} << i)) active.push_back(i);
    const Index k = static_cast<Index>(active.size());
    if (k == n) continue;  // all-zero p cannot sum to 1
    // Stationarity gives q = A_p h = -(lambda * A_p J + A_p mu) / 2 and
    // p = b + q. Unknowns: lambda and mu_active, fixed by
    //   sum(p) = 1   and   p_i = 0 for i in the active set.
    const Index dim = 1 + k;
    Tensor lhs(Shape{dim, dim});
    Tensor rhs(Shape{dim, 1});
    // Row 0: sum(p) = 1 -> (lambda jaj + sum_i (A_p mu)_i) / 2 = sum(b) - 1.
    lhs.at(0, 0) = jaj / 2.0;
    for (Index c = 0; c < k; ++c) {
      // sum over rows of column active[c] of A_p = (A_p J)_{active[c]}
      // because A_p is symmetric.
      lhs.at(0, 1 + c) = aj.at(active[static_cast<std::size_t>(c)], 0) / 2.0;
    }
    rhs.at(0, 0) = b.Sum() - 1.0;
    // Rows for p_i = 0, i in active: b_i = (lambda (A_p J)_i + (A_p mu)_i)/2.
    for (Index r = 0; r < k; ++r) {
      const Index i = active[static_cast<std::size_t>(r)];
      lhs.at(1 + r, 0) = aj.at(i, 0) / 2.0;
      for (Index c = 0; c < k; ++c) {
        const Index j = active[static_cast<std::size_t>(c)];
        lhs.at(1 + r, 1 + c) = ap.at(i, j) / 2.0;
      }
      rhs.at(1 + r, 0) = b.at(0, i);
    }
    // The system can be singular for degenerate active sets; skip those.
    Tensor sol;
    if (!linalg::TrySolve(lhs, rhs, 1e-12, &sol)) continue;
    const Scalar lambda = sol.at(0, 0);
    // Dual feasibility: mu >= 0.
    bool dual_ok = true;
    for (Index c = 0; c < k; ++c)
      if (sol.at(1 + c, 0) < -kTol) dual_ok = false;
    if (!dual_ok) continue;
    // Assemble p = b - (lambda A_p J + A_p mu) / 2.
    Tensor p(Shape{1, n});
    for (Index i = 0; i < n; ++i) {
      Scalar corr = lambda * aj.at(i, 0);
      for (Index c = 0; c < k; ++c)
        corr += ap.at(i, active[static_cast<std::size_t>(c)]) *
                sol.at(1 + c, 0);
      p.at(0, i) = b.at(0, i) - corr / 2.0;
    }
    // Primal feasibility.
    bool feasible = std::fabs(p.Sum() - 1.0) < 1e-6;
    for (Index i = 0; i < n && feasible; ++i)
      if (p.at(0, i) < -1e-7) feasible = false;
    if (!feasible) continue;
    // Ill-conditioned active sets (more constraints than the affine set's
    // dimension) can pass the pivot check yet destroy the reconstruction
    // through cancellation; verify p Z = S directly.
    Tensor s_rec = p.MatMul(z);
    const Scalar s_scale = 1.0 + s.MaxAbs();
    if ((s_rec - s.Reshaped(s_rec.shape())).MaxAbs() > 1e-6 * s_scale)
      continue;
    const Scalar obj = p.Dot(p);
    if (obj > best_obj) {
      best_obj = obj;
      best = p;
    }
  }
  return best;
}

}  // namespace diffode::sparsity
