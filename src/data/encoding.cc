#include "data/encoding.h"

namespace diffode::data {

template <typename T>
EncoderInputs FeaturizeInto(const IrregularSeries& series, Scalar span,
                            T* rows) {
  const Index n = series.length();
  DIFFODE_CHECK_GE(n, 1);
  const Index f = series.num_features();
  DIFFODE_CHECK_EQ(series.values.rows(), n);
  DIFFODE_CHECK(series.mask.shape() == series.values.shape());
  EncoderInputs enc;
  const Scalar t0 = series.times.front();
  Scalar window = series.times.back() - t0;
  if (window <= 0.0) window = 1.0;
  enc.t_scale = span / window;
  enc.t_offset = t0;
  enc.norm_times.reserve(static_cast<std::size_t>(n));
  const Index width = 2 * f + 2;
  const Scalar* values = series.values.data();
  const Scalar* mask = series.mask.data();
  Scalar prev = 0.0;
  for (Index i = 0; i < n; ++i) {
    const Scalar t_norm =
        enc.Normalize(series.times[static_cast<std::size_t>(i)]);
    enc.norm_times.push_back(t_norm);
    const Scalar* vi = values + i * f;
    const Scalar* mi = mask + i * f;
    T* row = rows + i * width;
    for (Index j = 0; j < f; ++j) {
      row[j] = static_cast<T>(vi[j] * mi[j]);
      row[f + j] = static_cast<T>(mi[j]);
    }
    row[2 * f] = static_cast<T>(t_norm);
    row[2 * f + 1] = static_cast<T>(i == 0 ? 0.0 : t_norm - prev);
    prev = t_norm;
  }
  return enc;
}

template EncoderInputs FeaturizeInto<Scalar>(const IrregularSeries&, Scalar,
                                             Scalar*);
template EncoderInputs FeaturizeInto<float>(const IrregularSeries&, Scalar,
                                            float*);

EncoderInputs BuildEncoderInputs(const IrregularSeries& series, Scalar span) {
  Tensor inputs = Tensor::Uninit(
      Shape{series.length(), 2 * series.num_features() + 2});
  EncoderInputs enc = FeaturizeInto(series, span, inputs.data());
  enc.inputs = std::move(inputs);
  return enc;
}

}  // namespace diffode::data
