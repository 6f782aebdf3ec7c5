#ifndef DIFFODE_LINALG_SVD_H_
#define DIFFODE_LINALG_SVD_H_

#include "tensor/tensor.h"

namespace diffode::linalg {

struct SvdResult {
  Tensor u;      // m x n, orthonormal columns
  Tensor sigma;  // n (rank-1 tensor), descending, non-negative
  Tensor v;      // n x n, orthogonal
};

// Thin singular value decomposition A = U diag(sigma) Vᵀ of an m x n matrix
// with m >= n, computed with the one-sided Jacobi method (slow but simple and
// extremely robust — used for pseudoinverses and validation, not hot paths).
SvdResult Svd(const Tensor& a);

}  // namespace diffode::linalg

#endif  // DIFFODE_LINALG_SVD_H_
