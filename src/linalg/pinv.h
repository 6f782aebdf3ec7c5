#ifndef DIFFODE_LINALG_PINV_H_
#define DIFFODE_LINALG_PINV_H_

#include "tensor/tensor.h"

namespace diffode::linalg {

// Moore-Penrose pseudoinverse A† via SVD with relative singular-value cutoff
// tol * sigma_max. Works for any shape and rank; this is the reference path
// for the paper's generalized-inverse machinery (Definition 1).
Tensor PInverse(const Tensor& a, Scalar tol = 1e-12);

}  // namespace diffode::linalg

#endif  // DIFFODE_LINALG_PINV_H_
