#include "hippo/hippo.h"

#include <cmath>

namespace diffode::hippo {

Tensor MakeLegsA(Index n) {
  Tensor a(Shape{n, n});
  for (Index i = 0; i < n; ++i) {
    for (Index k = 0; k < n; ++k) {
      if (i == k) {
        a.at(i, k) = -static_cast<Scalar>(i + 1);
      } else if (i > k) {
        a.at(i, k) = -std::sqrt(static_cast<Scalar>(2 * i + 1)) *
                     std::sqrt(static_cast<Scalar>(2 * k + 1));
      }
    }
  }
  return a;
}

Tensor MakeLegsB(Index n) {
  Tensor b(Shape{n, 1});
  for (Index i = 0; i < n; ++i)
    b.at(i, 0) = std::sqrt(static_cast<Scalar>(2 * i + 1));
  return b;
}

LegsProjector::LegsProjector(Index order)
    : a_(MakeLegsA(order)), b_(MakeLegsB(order)), c_(Shape{order, 1}) {}

void LegsProjector::Update(Scalar u) {
  ++count_;
  // Time-scaled LegS: dc/dt = (1/t)(A c + B u); one Euler step per sample
  // with dt = 1 gives c += (A c + B u) / k.
  const Scalar inv_k = 1.0 / static_cast<Scalar>(count_);
  Tensor rhs = a_.MatMul(c_) + b_ * u;
  c_ += rhs * inv_k;
}

void LegsProjector::Reset() {
  c_ = Tensor(c_.shape());
  count_ = 0;
}

}  // namespace diffode::hippo
