#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "tensor/kernels.h"

namespace diffode {

template <typename T>
TensorT<T> TensorT<T>::Full(Shape shape, T value) {
  TensorT t = Uninit(std::move(shape));
  for (auto& v : t.data_) v = value;
  return t;
}

template <typename T>
TensorT<T> TensorT<T>::Eye(Index n) {
  TensorT t(Shape{n, n});
  for (Index i = 0; i < n; ++i) t.at(i, i) = T(1);
  return t;
}

template <typename T>
TensorT<T> TensorT<T>::FromScalar(T value) {
  TensorT t(Shape{});
  t.data_ = {value};
  return t;
}

template <typename T>
TensorT<T> TensorT<T>::FromVector(const std::vector<T>& values) {
  return TensorT(Shape{static_cast<Index>(values.size())}, values);
}

template <typename T>
TensorT<T> TensorT<T>::RowVector(const std::vector<T>& values) {
  return TensorT(Shape{1, static_cast<Index>(values.size())}, values);
}

template <typename T>
TensorT<T> TensorT<T>::ColVector(const std::vector<T>& values) {
  return TensorT(Shape{static_cast<Index>(values.size()), 1}, values);
}

template <typename T>
TensorT<T> TensorT<T>::FromRows(Index rows, Index cols,
                                const std::vector<T>& values) {
  return TensorT(Shape{rows, cols}, values);
}

template <typename T>
void TensorT<T>::SetZero() {
  std::fill(data_.begin(), data_.end(), T(0));
}

template <typename T>
TensorT<T>& TensorT<T>::operator+=(const TensorT& other) {
  DIFFODE_CHECK_MSG(shape_ == other.shape_, "operator+= shape mismatch");
  kernels::Axpy(numel(), T(1), other.data(), data());
  return *this;
}

template <typename T>
TensorT<T>& TensorT<T>::operator-=(const TensorT& other) {
  DIFFODE_CHECK_MSG(shape_ == other.shape_, "operator-= shape mismatch");
  kernels::Axpy(numel(), T(-1), other.data(), data());
  return *this;
}

template <typename T>
TensorT<T>& TensorT<T>::operator*=(const TensorT& other) {
  DIFFODE_CHECK_MSG(shape_ == other.shape_, "operator*= shape mismatch");
  kernels::Zip(numel(), data(), other.data(), data(),
               [](T x, T y) { return x * y; });
  return *this;
}

template <typename T>
TensorT<T>& TensorT<T>::operator+=(T v) {
  kernels::Map(numel(), data(), data(), [v](T x) { return x + v; });
  return *this;
}

template <typename T>
TensorT<T>& TensorT<T>::operator*=(T v) {
  kernels::Scale(numel(), v, data());
  return *this;
}

template <typename T>
TensorT<T> TensorT<T>::operator-() const {
  TensorT out = *this;
  kernels::Scale(out.numel(), T(-1), out.data());
  return out;
}

template <typename T>
TensorT<T> TensorT<T>::CwiseQuotient(const TensorT& other) const {
  DIFFODE_CHECK_MSG(shape_ == other.shape_, "CwiseQuotient shape mismatch");
  TensorT out = *this;
  kernels::Zip(out.numel(), out.data(), other.data(), out.data(),
               [](T x, T y) { return x / y; });
  return out;
}

template <typename T>
TensorT<T> TensorT<T>::MatMul(const TensorT& other) const {
  const Index m = rows();
  const Index k = cols();
  DIFFODE_CHECK_MSG(other.rows() == k, "MatMul inner-dimension mismatch");
  const Index n = other.cols();
  TensorT out = Uninit(Shape{m, n});
  kernels::Gemm(m, k, n, data(), other.data(), out.data());
  return out;
}

template <typename T>
TensorT<T> TensorT<T>::TransposedMatMul(const TensorT& other) const {
  const Index k = rows();
  const Index m = cols();
  DIFFODE_CHECK_MSG(other.rows() == k,
                    "TransposedMatMul inner-dimension mismatch");
  const Index n = other.cols();
  TensorT out = Uninit(Shape{m, n});
  kernels::GemmTN(m, k, n, data(), other.data(), out.data());
  return out;
}

template <typename T>
TensorT<T> TensorT<T>::MatMulTransposed(const TensorT& other) const {
  const Index m = rows();
  const Index k = cols();
  DIFFODE_CHECK_MSG(other.cols() == k,
                    "MatMulTransposed inner-dimension mismatch");
  const Index n = other.rows();
  TensorT out = Uninit(Shape{m, n});
  kernels::GemmNT(m, k, n, data(), other.data(), out.data());
  return out;
}

template <typename T>
TensorT<T> TensorT<T>::Transposed() const {
  const Index r = rows();
  const Index c = cols();
  TensorT out = Uninit(Shape{c, r});
  const T* src_p = data();
  T* dst = out.data();
  for (Index i = 0; i < r; ++i)
    for (Index j = 0; j < c; ++j) dst[j * r + i] = src_p[i * c + j];
  return out;
}

template <typename T>
TensorT<T> TensorT<T>::Reshaped(Shape shape) const {
  DIFFODE_CHECK_EQ(shape.numel(), numel());
  return TensorT(std::move(shape), data_);
}

template <typename T>
T TensorT<T>::Sum() const {
  return kernels::Sum(numel(), data());
}

template <typename T>
T TensorT<T>::Mean() const {
  DIFFODE_CHECK_GT(numel(), 0);
  return Sum() / static_cast<T>(numel());
}

template <typename T>
T TensorT<T>::MaxAbs() const {
  T m = T(0);
  for (T x : data_) m = std::max(m, std::fabs(x));
  return m;
}

template <typename T>
T TensorT<T>::Max() const {
  DIFFODE_CHECK_GT(numel(), 0);
  T m = data_[0];
  for (T x : data_) m = std::max(m, x);
  return m;
}

template <typename T>
T TensorT<T>::Norm() const {
  return std::sqrt(kernels::Dot(numel(), data(), data()));
}

template <typename T>
T TensorT<T>::Dot(const TensorT& other) const {
  DIFFODE_CHECK_EQ(numel(), other.numel());
  return kernels::Dot(numel(), data(), other.data());
}

template <typename T>
TensorT<T> TensorT<T>::RowSums() const {
  const Index r = rows();
  const Index c = cols();
  TensorT out = Uninit(Shape{r, 1});
  const T* src = data();
  T* dst = out.data();
  for (Index i = 0; i < r; ++i) {
    const T* row = src + i * c;
    T s = T(0);
    for (Index j = 0; j < c; ++j) s += row[j];
    dst[i] = s;
  }
  return out;
}

template <typename T>
TensorT<T> TensorT<T>::ColSums() const {
  const Index r = rows();
  const Index c = cols();
  TensorT out = Uninit(Shape{1, c});
  // Row-major accumulation: each out[j] still sums rows in increasing i
  // order (bit-identical to the column-walk it replaces) but memory access
  // is contiguous.
  T* dst = out.data();
  std::fill(dst, dst + c, T(0));
  const T* src = data();
  for (Index i = 0; i < r; ++i) {
    const T* row = src + i * c;
    for (Index j = 0; j < c; ++j) dst[j] += row[j];
  }
  return out;
}

template <typename T>
TensorT<T> TensorT<T>::Row(Index r) const {
  return Rows(r, 1);
}

template <typename T>
TensorT<T> TensorT<T>::Rows(Index begin, Index count) const {
  DIFFODE_CHECK_GE(begin, 0);
  DIFFODE_CHECK_GE(count, 0);
  DIFFODE_CHECK_LE(begin + count, rows());
  const Index c = cols();
  TensorT out = Uninit(Shape{count, c});
  std::copy(data() + begin * c, data() + (begin + count) * c, out.data());
  return out;
}

template <typename T>
TensorT<T> TensorT<T>::Col(Index c) const {
  DIFFODE_CHECK_GE(c, 0);
  DIFFODE_CHECK_LT(c, cols());
  const Index r = rows();
  const Index nc = cols();
  TensorT out = Uninit(Shape{r, 1});
  const T* src = data() + c;
  T* dst = out.data();
  for (Index i = 0; i < r; ++i) dst[i] = src[i * nc];
  return out;
}

template <typename T>
void TensorT<T>::SetRow(Index r, const TensorT& row) {
  DIFFODE_CHECK_EQ(row.numel(), cols());
  std::copy(row.data(), row.data() + cols(), data() + r * cols());
}

template <typename T>
TensorT<T> TensorT<T>::ConcatRows(const std::vector<TensorT>& parts) {
  DIFFODE_CHECK(!parts.empty());
  const Index c = parts[0].cols();
  Index total = 0;
  for (const auto& p : parts) {
    DIFFODE_CHECK_EQ(p.cols(), c);
    total += p.rows();
  }
  TensorT out = Uninit(Shape{total, c});
  T* dst = out.data();
  for (const auto& p : parts) {
    dst = std::copy(p.data(), p.data() + p.numel(), dst);
  }
  return out;
}

template <typename T>
TensorT<T> TensorT<T>::ConcatCols(const std::vector<TensorT>& parts) {
  DIFFODE_CHECK(!parts.empty());
  const Index r = parts[0].rows();
  Index total = 0;
  for (const auto& p : parts) {
    DIFFODE_CHECK_EQ(p.rows(), r);
    total += p.cols();
  }
  TensorT out = Uninit(Shape{r, total});
  T* base = out.data();
  Index c = 0;
  for (const auto& p : parts) {
    const Index pc = p.cols();
    const T* src = p.data();
    for (Index i = 0; i < r; ++i)
      std::copy(src + i * pc, src + (i + 1) * pc, base + i * total + c);
    c += pc;
  }
  return out;
}

template <typename T>
bool TensorT<T>::AllFinite() const {
  for (T x : data_)
    if (!std::isfinite(x)) return false;
  return true;
}

template <typename T>
std::string TensorT<T>::ToString(int max_per_dim) const {
  std::string s = "Tensor" + shape_.ToString() + " {";
  char buf[32];
  const Index limit = std::min<Index>(numel(), max_per_dim * max_per_dim);
  for (Index i = 0; i < limit; ++i) {
    std::snprintf(buf, sizeof(buf), "%.5g",
                  static_cast<double>(  // dtype:ok — printf varargs promotion
                      data_[static_cast<std::size_t>(i)]));
    if (i > 0) s += ", ";
    s += buf;
  }
  if (limit < numel()) s += ", ...";
  return s + "}";
}

template class TensorT<double>;  // dtype:ok — explicit instantiation
template class TensorT<float>;

}  // namespace diffode
