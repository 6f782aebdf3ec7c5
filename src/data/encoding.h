#ifndef DIFFODE_DATA_ENCODING_H_
#define DIFFODE_DATA_ENCODING_H_

#include <vector>

#include "data/irregular_series.h"

namespace diffode::data {

// Shared observation-to-feature convention used by DIFFODE and every
// baseline: row i is [x_i * m_i, m_i, t_i, dt_i] with times affinely mapped
// so the context window spans [0, span]. One convention across models keeps
// the comparisons in Tables III-V architecture-only.
struct EncoderInputs {
  Tensor inputs;                  // n x (2 f + 2)
  std::vector<Scalar> norm_times; // n, in [0, span]
  Scalar t_scale = 1.0;           // norm = (raw - t_offset) * t_scale
  Scalar t_offset = 0.0;

  Scalar Normalize(Scalar raw_time) const {
    return (raw_time - t_offset) * t_scale;
  }
};

// The feature rows of `series` as f64, with their time map.
EncoderInputs BuildEncoderInputs(const IrregularSeries& series,
                                 Scalar span = 10.0);

// The one featurizer body, at the destination dtype T (double or float):
// writes every element of the n x (2 f + 2) feature rows into rows[]
// (row-major), each computed in f64 and rounded once to T, and returns the
// time map and normalized times with `inputs` left empty.
// BuildEncoderInputs is its f64 wrapper; the f32 lockstep engine writes its
// encoder inputs through it in float, bitwise the cast of the f64 rows.
template <typename T>
EncoderInputs FeaturizeInto(const IrregularSeries& series, Scalar span,
                            T* rows);

}  // namespace diffode::data

#endif  // DIFFODE_DATA_ENCODING_H_
