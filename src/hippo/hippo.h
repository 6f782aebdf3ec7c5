#ifndef DIFFODE_HIPPO_HIPPO_H_
#define DIFFODE_HIPPO_HIPPO_H_

#include "tensor/tensor.h"

namespace diffode::hippo {

// HiPPO-LegS operator (Gu et al., NeurIPS 2020): the optimal-polynomial-
// projection state-space pair used by the paper's output head (Eq. 36), by
// the HiPPO-RNN / HiPPO-obs baselines, and by the S4-lite baseline.
//
// The continuous dynamics are dc/dt = A c + B u with the *stable* sign
// convention (A has negative spectrum), so c carries a Legendre-coefficient
// summary of the input history u.

// n x n LegS state matrix: A[i][i] = -(i+1);
// A[i][k] = -sqrt(2i+1) sqrt(2k+1) for i > k; 0 above the diagonal.
Tensor MakeLegsA(Index n);

// n x 1 LegS input matrix: B[i] = sqrt(2i+1).
Tensor MakeLegsB(Index n);

// Online LegS projection of a scalar stream: maintains coefficients c over
// successive samples with the time-scaled LegS update
// c_k = (I - A/k) ^{-1}-free Euler form c_{k-1} + (1/k)(A c_{k-1} + B u_k).
class LegsProjector {
 public:
  explicit LegsProjector(Index order);

  // Consumes the next sample; k is the 1-based sample count.
  void Update(Scalar u);
  const Tensor& coeffs() const { return c_; }
  void Reset();

 private:
  Tensor a_;
  Tensor b_;
  Tensor c_;  // n x 1
  Index count_ = 0;
};

}  // namespace diffode::hippo

#endif  // DIFFODE_HIPPO_HIPPO_H_
