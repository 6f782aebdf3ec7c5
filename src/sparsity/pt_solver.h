#ifndef DIFFODE_SPARSITY_PT_SOLVER_H_
#define DIFFODE_SPARSITY_PT_SOLVER_H_

#include "tensor/tensor.h"

namespace diffode::sparsity {

// Strategy for picking the free vector h in the underdetermined attention
// inversion p_tᵀ = (Zᵀ)† S_tᵀ + (I - (Zᵀ)† Zᵀ) h (paper Eq. 13). The
// inversion itself is core::BuildDhsContext plus the core/dhs.h kernels.
enum class PtStrategy {
  kMaxHoyer,  // Theorem 2 closed form, Eq. 32 (the paper's default)
  kMinNorm,   // h = 0: the minimum-norm solution
  kAdaH,      // h is an externally supplied (trained) vector
};

// Reference implementation of Eq. 34 with explicit SVD pseudoinverses of
// M = J_{n,1} p - I_n and Zᵀ; used in tests to validate the rank-one fast
// path of core::RecoverZ.
Tensor RecoverZReference(const Tensor& z, const Tensor& p, const Tensor& h2);

// Theorem-1 oracle: exact maximization of p pᵀ subject to p = b + A_p h,
// p >= 0, Σp = 1, by enumerating KKT active sets, given Z (n x d), a
// factorization's (Zᵀ)† (n x d) and the hidden state s (1 x d); b and
// A_p = I - (Zᵀ)† Zᵀ are formed from them. Exponential in n (n <= 20);
// used to validate the relaxed closed form on short sequences. Returns an
// empty tensor if no feasible KKT point exists.
Tensor MaxHoyerExactKkt(const Tensor& z, const Tensor& zt_pinv,
                        const Tensor& s);

}  // namespace diffode::sparsity

#endif  // DIFFODE_SPARSITY_PT_SOLVER_H_
