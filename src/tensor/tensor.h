#ifndef DIFFODE_TENSOR_TENSOR_H_
#define DIFFODE_TENSOR_TENSOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/buffer_pool.h"
#include "tensor/check.h"
#include "tensor/kernels.h"
#include "tensor/shape.h"

namespace diffode {

// Default element type of the numeric stack. Training, autograd, and the
// tape are f64-only; `float` exists as an opt-in SERVING dtype reached
// through TensorT<float> (alias Tensor32) on the frozen/no-grad path.
using Scalar = double;  // dtype:ok — the one sanctioned raw spelling

// Inference dtype selector for the frozen serving path (nn::Module::Freeze,
// core::BatchedDispatch, core::BatchPredictor, diffode_cli --precision).
// kF64 is the default and is bitwise-identical to the training forward;
// kF32 casts a frozen parameter snapshot to float and runs the batched
// serving engine 8 SIMD lanes wide instead of 4.
enum class Precision {
  kF64 = 0,
  kF32 = 1,
};

// Human-readable precision name ("f64", "f32").
inline const char* PrecisionName(Precision p) {
  return p == Precision::kF32 ? "f32" : "f64";
}

// Tensor storage draws from the size-bucketed buffer pool whenever a
// tensor::BufferPool::Scope is active on the current thread; otherwise the
// allocator degrades to (bucket-rounded) heap allocation.
template <typename T>
using TensorDataT = std::vector<T, tensor::PoolAllocator<T>>;

// Dense row-major tensor over element type T (double for training, float on
// the opt-in serving tier). Value-semantic: copies copy the buffer.
// This is the numeric substrate for the autograd tape, the ODE solvers, and
// every model in the repository; it is deliberately small and predictable
// rather than clever (no views, no lazy evaluation, no broadcasting beyond
// the few forms models need).
template <typename T>
class TensorT {
 public:
  using value_type = T;

  TensorT() = default;
  explicit TensorT(Shape shape)
      : shape_(std::move(shape)),
        data_(static_cast<std::size_t>(shape_.numel()), T(0)) {}
  TensorT(Shape shape, TensorDataT<T> data)
      : shape_(std::move(shape)), data_(std::move(data)) {
    DIFFODE_CHECK_EQ(shape_.numel(), static_cast<Index>(data_.size()));
  }
  TensorT(Shape shape, const std::vector<T>& data)
      : shape_(std::move(shape)), data_(data.begin(), data.end()) {
    DIFFODE_CHECK_EQ(shape_.numel(), static_cast<Index>(data_.size()));
  }

  // Factories.
  static TensorT Zeros(Shape shape) { return TensorT(std::move(shape)); }
  // Allocates WITHOUT zero-filling. Only for buffers where every element is
  // written before it is read (e.g. GEMM outputs, full elementwise maps).
  static TensorT Uninit(Shape shape) {
    TensorT t;
    t.shape_ = std::move(shape);
    t.data_.resize(static_cast<std::size_t>(t.shape_.numel()));
    return t;
  }
  static TensorT Ones(Shape shape) { return Full(std::move(shape), T(1)); }
  static TensorT Full(Shape shape, T value);
  static TensorT Eye(Index n);
  static TensorT FromScalar(T value);
  // Rank-1 tensor from values.
  static TensorT FromVector(const std::vector<T>& values);
  // 1 x n and n x 1 matrices from values.
  static TensorT RowVector(const std::vector<T>& values);
  static TensorT ColVector(const std::vector<T>& values);
  // r x c matrix from row-major values.
  static TensorT FromRows(Index rows, Index cols,
                          const std::vector<T>& values);

  // Metadata.
  const Shape& shape() const { return shape_; }
  Index rank() const { return shape_.rank(); }
  Index numel() const { return shape_.numel(); }
  bool empty() const { return data_.empty(); }
  // 2-D conveniences; a rank-1 tensor is treated as a single row. Inline:
  // these sit on the hot path of every elementwise loop in the tree.
  Index rows() const {
    if (rank() == 1) return 1;
    DIFFODE_CHECK_EQ(rank(), 2);
    return shape_.dim(0);
  }
  Index cols() const {
    if (rank() == 1) return shape_.dim(0);
    DIFFODE_CHECK_EQ(rank(), 2);
    return shape_.dim(1);
  }

  // Raw element access.
  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  const TensorDataT<T>& values() const { return data_; }

  // Zeroes every element in place, keeping the buffer.
  void SetZero();

  T& operator[](Index i) {
    DIFFODE_CHECK_GE(i, 0);
    DIFFODE_CHECK_LT(i, numel());
    return data_[static_cast<std::size_t>(i)];
  }
  T operator[](Index i) const {
    DIFFODE_CHECK_GE(i, 0);
    DIFFODE_CHECK_LT(i, numel());
    return data_[static_cast<std::size_t>(i)];
  }
  T& at(Index r, Index c) {
    DIFFODE_CHECK_GE(r, 0);
    DIFFODE_CHECK_LT(r, rows());
    DIFFODE_CHECK_GE(c, 0);
    DIFFODE_CHECK_LT(c, cols());
    return data_[static_cast<std::size_t>(r * cols() + c)];
  }
  T at(Index r, Index c) const {
    DIFFODE_CHECK_GE(r, 0);
    DIFFODE_CHECK_LT(r, rows());
    DIFFODE_CHECK_GE(c, 0);
    DIFFODE_CHECK_LT(c, cols());
    return data_[static_cast<std::size_t>(r * cols() + c)];
  }
  // Value of a single-element tensor.
  T item() const {
    DIFFODE_CHECK_EQ(numel(), 1);
    return data_[0];
  }

  // Elementwise arithmetic (shapes must match exactly).
  TensorT& operator+=(const TensorT& other);
  TensorT& operator-=(const TensorT& other);
  TensorT& operator*=(const TensorT& other);
  TensorT& operator+=(T v);
  TensorT& operator*=(T v);

  // `return a;` (not `return a += b;`): the compound assignment yields an
  // lvalue reference, and returning that expression copies the buffer where
  // returning the named parameter moves it — one whole buffer copy per
  // arithmetic op on the autograd hot path.
  friend TensorT operator+(TensorT a, const TensorT& b) {
    a += b;
    return a;
  }
  friend TensorT operator-(TensorT a, const TensorT& b) {
    a -= b;
    return a;
  }
  friend TensorT operator*(TensorT a, const TensorT& b) {
    a *= b;
    return a;
  }
  friend TensorT operator+(TensorT a, T v) {
    a += v;
    return a;
  }
  friend TensorT operator+(T v, TensorT a) {
    a += v;
    return a;
  }
  friend TensorT operator-(TensorT a, T v) {
    a += -v;
    return a;
  }
  friend TensorT operator*(TensorT a, T v) {
    a *= v;
    return a;
  }
  friend TensorT operator*(T v, TensorT a) {
    a *= v;
    return a;
  }
  friend TensorT operator/(TensorT a, T v) { return a *= (T(1) / v); }
  TensorT operator-() const;
  TensorT CwiseQuotient(const TensorT& other) const;

  // Applies fn to every element, returning a new tensor.
  template <typename F>
  TensorT Map(F fn) const {
    TensorT out = *this;
    kernels::Map(out.numel(), out.data(), out.data(), fn);
    return out;
  }

  // Linear algebra (2-D unless noted; rank-1 operands act as single rows).
  TensorT MatMul(const TensorT& other) const;
  // this^T * other, without materializing the transpose (kernels::GemmTN).
  TensorT TransposedMatMul(const TensorT& other) const;
  // this * other^T, without materializing the transpose (kernels::GemmNT).
  TensorT MatMulTransposed(const TensorT& other) const;
  TensorT Transposed() const;
  TensorT Reshaped(Shape shape) const;

  // Reductions.
  T Sum() const;
  T Mean() const;
  T MaxAbs() const;
  T Max() const;
  T Norm() const;  // Frobenius / L2.
  T Dot(const TensorT& other) const;
  TensorT RowSums() const;  // (r x c) -> (r x 1)
  TensorT ColSums() const;  // (r x c) -> (1 x c)

  // Row slicing for 2-D tensors.
  TensorT Row(Index r) const;                    // 1 x c
  TensorT Rows(Index begin, Index count) const;  // count x c
  TensorT Col(Index c) const;                    // r x 1
  void SetRow(Index r, const TensorT& row);

  // Concatenation of 2-D blocks.
  static TensorT ConcatRows(const std::vector<TensorT>& parts);
  static TensorT ConcatCols(const std::vector<TensorT>& parts);

  // Element-by-element dtype conversion (same shape). The serving tier uses
  // Cast<float>() to snapshot frozen f64 parameters and Cast<double>() to
  // widen f32 results back into the uniform f64 Result surface.
  template <typename U>
  TensorT<U> Cast() const {
    TensorT<U> out = TensorT<U>::Uninit(shape_);
    U* dst = out.data();
    for (Index i = 0; i < numel(); ++i)
      dst[i] = static_cast<U>(data_[static_cast<std::size_t>(i)]);
    return out;
  }

  bool AllFinite() const;
  std::string ToString(int max_per_dim = 8) const;

 private:
  Shape shape_;
  TensorDataT<T> data_;
};

extern template class TensorT<double>;  // dtype:ok — explicit instantiation
extern template class TensorT<float>;

// The training/autograd tensor (f64) and the serving-tier tensor (f32).
using Tensor = TensorT<Scalar>;
using Tensor32 = TensorT<float>;
using TensorData = TensorDataT<Scalar>;

}  // namespace diffode

#endif  // DIFFODE_TENSOR_TENSOR_H_
