#ifndef DIFFODE_LINALG_LU_H_
#define DIFFODE_LINALG_LU_H_

#include "tensor/tensor.h"

namespace diffode::linalg {

// Solves the square system A x = b with Gaussian elimination and partial
// pivoting. b may have multiple columns. Returns false, leaving *x
// unspecified, as soon as a pivot's magnitude is not above `min_pivot`.
bool TrySolve(const Tensor& a, const Tensor& b, Scalar min_pivot, Tensor* x);

// TrySolve that aborts on singular A.
Tensor Solve(const Tensor& a, const Tensor& b);

// Inverse of a square matrix via LU.
Tensor Inverse(const Tensor& a);

}  // namespace diffode::linalg

#endif  // DIFFODE_LINALG_LU_H_
