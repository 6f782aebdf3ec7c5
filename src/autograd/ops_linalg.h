#ifndef DIFFODE_AUTOGRAD_OPS_LINALG_H_
#define DIFFODE_AUTOGRAD_OPS_LINALG_H_

#include "autograd/variable.h"

namespace diffode::ag {

// Differentiable inverse of (A + ridge*I) for a square A (LU under the
// hood); the ridge stabilizes Gram matrices like ZᵀZ when Z is nearly
// rank-deficient. Backward: dA = -B^{-T} G B^{-T} with B = A + ridge*I.
Var RidgeInverse(const Var& a, Scalar ridge);

}  // namespace diffode::ag

#endif  // DIFFODE_AUTOGRAD_OPS_LINALG_H_
