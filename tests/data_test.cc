#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "data/encoding.h"
#include "data/generators.h"
#include "data/splits.h"

namespace diffode::data {
namespace {

TEST(SyntheticPeriodicTest, SplitSizesAndLabels) {
  SyntheticPeriodicConfig config;
  config.num_series = 200;
  Dataset ds = MakeSyntheticPeriodic(config);
  EXPECT_EQ(ds.num_classes, 2);
  EXPECT_EQ(ds.num_features, 1);
  EXPECT_EQ(ds.TotalSeries(), 200);
  EXPECT_EQ(static_cast<Index>(ds.train.size()), 100);
  EXPECT_EQ(static_cast<Index>(ds.val.size()), 50);
  EXPECT_EQ(static_cast<Index>(ds.test.size()), 50);
  std::set<Index> labels;
  for (const auto& s : ds.train) labels.insert(s.label);
  EXPECT_EQ(labels.size(), 2u);  // both classes present
}

TEST(SyntheticPeriodicTest, ValuesFollowGeneratingEquationModuloThinning) {
  SyntheticPeriodicConfig config;
  config.num_series = 10;
  config.keep_rate = 1.0;  // no thinning: values must match x(t) exactly
  Dataset ds = MakeSyntheticPeriodic(config);
  const auto& s = ds.train.front();
  // The generating family is x(t) = sin(t+phi)cos(3(t+phi)); with unknown
  // phi we verify the functional identity x = 0.5(sin(4u) - sin(2u)) via
  // amplitude bounds instead: |x| <= 1.
  for (Index i = 0; i < s.length(); ++i)
    EXPECT_LE(std::fabs(s.values.at(i, 0)), 1.0 + 1e-9);
  // Times strictly increasing inside (0, 10).
  for (std::size_t i = 1; i < s.times.size(); ++i)
    EXPECT_GT(s.times[i], s.times[i - 1]);
  EXPECT_GT(s.times.front(), 0.0);
  EXPECT_LT(s.times.back(), 10.0);
}

TEST(SyntheticPeriodicTest, ThinningReducesLength) {
  SyntheticPeriodicConfig config;
  config.num_series = 50;
  config.grid_points = 40;
  config.keep_rate = 0.5;
  Dataset ds = MakeSyntheticPeriodic(config);
  Scalar mean_len = 0.0;
  for (const auto& s : ds.train) mean_len += s.length();
  mean_len /= ds.train.size();
  EXPECT_NEAR(mean_len, 20.0, 4.0);
}

TEST(SyntheticPeriodicTest, Deterministic) {
  SyntheticPeriodicConfig config;
  config.num_series = 20;
  Dataset a = MakeSyntheticPeriodic(config);
  Dataset b = MakeSyntheticPeriodic(config);
  ASSERT_EQ(a.train.size(), b.train.size());
  EXPECT_EQ((a.train[0].values - b.train[0].values).MaxAbs(), 0.0);
  EXPECT_EQ(a.train[0].label, b.train[0].label);
}

TEST(LorenzTest, Lorenz63EquationsFixedPoint) {
  // The origin-ish fixed point: x=y=0, z=0 -> derivative zero except... use
  // the known fixed point (sqrt(beta(rho-1)), sqrt(beta(rho-1)), rho-1).
  const Scalar beta = 8.0 / 3.0, rho = 28.0;
  const Scalar c = std::sqrt(beta * (rho - 1.0));
  Tensor fp = Tensor::FromVector({c, c, rho - 1.0});
  Tensor moved = IntegrateLorenz63(fp, 0.001, 10);
  EXPECT_LT((moved - fp).MaxAbs(), 1e-6);
}

TEST(LorenzTest, Lorenz96EquilibriumAtForcing) {
  // x_i = F for all i is an equilibrium of Lorenz-96.
  Tensor fp = Tensor::Full(Shape{12}, 8.0);
  Tensor moved = IntegrateLorenz96(fp, 0.001, 10);
  EXPECT_LT((moved - fp).MaxAbs(), 1e-9);
}

TEST(LorenzTest, ChaoticSensitivity) {
  // Nearby Lorenz-63 states diverge (positive Lyapunov exponent).
  Tensor a = Tensor::FromVector({1.0, 1.0, 1.0});
  Tensor b = Tensor::FromVector({1.0 + 1e-6, 1.0, 1.0});
  Tensor a_end = IntegrateLorenz63(a, 0.01, 3000);
  Tensor b_end = IntegrateLorenz63(b, 0.01, 3000);
  EXPECT_GT((a_end - b_end).MaxAbs(), 1.0);
}

TEST(LorenzTest, DatasetShapes) {
  DynamicalSystemConfig config;
  config.dim = 12;
  config.trajectory_steps = 400;
  config.window = 40;
  Dataset ds = MakeLorenz96(config);
  EXPECT_EQ(ds.num_features, 11);  // last dimension hidden
  // (trajectory_steps - lookahead) / window whole windows.
  EXPECT_EQ(ds.TotalSeries(), 9);
  for (const auto& s : ds.train) {
    EXPECT_GE(s.length(), 2);
    EXPECT_TRUE(s.values.AllFinite());
    EXPECT_TRUE(s.label == 0 || s.label == 1);
  }
}

TEST(LorenzTest, Lorenz63DatasetUsesCopies) {
  DynamicalSystemConfig config;
  config.dim = 9;
  config.trajectory_steps = 200;
  config.window = 25;
  Dataset ds = MakeLorenz63(config);
  EXPECT_EQ(ds.num_features, 8);
}

TEST(UshcnLikeTest, ShapesSparsityAndSplits) {
  UshcnLikeConfig config;
  config.num_stations = 40;
  config.num_days = 120;
  Dataset ds = MakeUshcnLike(config);
  EXPECT_EQ(ds.num_features, 5);
  EXPECT_EQ(static_cast<Index>(ds.train.size()), 24);
  // Sparse: a sizable fraction of mask entries must be zero.
  Scalar observed = 0.0, total = 0.0;
  for (const auto& s : ds.train) {
    observed += s.mask.Sum();
    total += static_cast<Scalar>(s.mask.numel());
  }
  EXPECT_LT(observed / total, 0.9);
  EXPECT_GT(observed / total, 0.05);
}

TEST(UshcnLikeTest, SnowOnlyWhenCold) {
  UshcnLikeConfig config;
  config.num_stations = 10;
  Dataset ds = MakeUshcnLike(config);
  for (const auto& s : ds.train) {
    for (Index i = 0; i < s.length(); ++i) {
      const Scalar snowfall = s.values.at(i, 1);
      const Scalar tmin = s.values.at(i, 3);
      if (snowfall > 0.0) {
        EXPECT_LT(tmin, 0.0);
      }
    }
  }
}

TEST(PhysioNetLikeTest, ShapesAndTickRounding) {
  PhysioNetLikeConfig config;
  config.num_patients = 30;
  config.num_channels = 12;
  Dataset ds = MakePhysioNetLike(config);
  EXPECT_EQ(ds.num_features, 12);
  for (const auto& s : ds.train) {
    for (Scalar t : s.times) {
      EXPECT_GE(t, 0.0);
      EXPECT_LE(t, config.horizon_hours + 1e-9);
      // 6-minute rounding.
      const Scalar ticks = t / config.tick_hours;
      EXPECT_NEAR(ticks, std::round(ticks), 1e-6);
    }
    // Every row reports at least one channel.
    for (Index i = 0; i < s.length(); ++i) {
      Scalar row_mask = 0.0;
      for (Index j = 0; j < 12; ++j) row_mask += s.mask.at(i, j);
      EXPECT_GT(row_mask, 0.0);
    }
  }
}

TEST(LargeStLikeTest, FlowsNonNegativeAndPeriodic) {
  LargeStLikeConfig config;
  config.num_sensors = 10;
  config.hours_per_sensor = 24 * 7;
  Dataset ds = MakeLargeStLike(config);
  EXPECT_EQ(ds.num_features, 1);
  for (const auto& s : ds.train)
    for (Index i = 0; i < s.length(); ++i)
      EXPECT_GE(s.values.at(i, 0), 0.0);
}

TEST(SplitsTest, NormalizeZeroMeanUnitVar) {
  UshcnLikeConfig config;
  config.num_stations = 30;
  Dataset ds = MakeUshcnLike(config);
  NormalizeDataset(&ds);
  FeatureStats stats = ComputeStats(ds.train);
  for (Index j = 0; j < 5; ++j) {
    EXPECT_NEAR(stats.mean.at(0, j), 0.0, 1e-9);
    EXPECT_NEAR(stats.std.at(0, j), 1.0, 1e-6);
  }
}

TEST(SplitsTest, InterpolationViewPartitionsObservations) {
  PhysioNetLikeConfig config;
  config.num_patients = 5;
  Dataset ds = MakePhysioNetLike(config);
  Rng rng(3);
  const auto& s = ds.train.front();
  TaskView view = MakeInterpolationView(s, 0.4, rng);
  // Target mask entries were observed in the original and are no longer in
  // the context.
  Index moved = 0;
  for (Index i = 0; i < view.target.length(); ++i) {
    for (Index j = 0; j < view.target.num_features(); ++j) {
      if (view.target.mask.at(i, j) > 0) {
        EXPECT_GT(s.mask.at(i, j), 0.0);
        ++moved;
      }
    }
  }
  EXPECT_GT(moved, 0);
  // Context only keeps rows with some observation.
  for (Index i = 0; i < view.context.length(); ++i) {
    Scalar row = 0.0;
    for (Index j = 0; j < view.context.num_features(); ++j)
      row += view.context.mask.at(i, j);
    EXPECT_GT(row, 0.0);
  }
}

TEST(SplitsTest, ExtrapolationViewSplitsAtMidpoint) {
  PhysioNetLikeConfig config;
  config.num_patients = 5;
  Dataset ds = MakePhysioNetLike(config);
  const auto& s = ds.train.front();
  TaskView view = MakeExtrapolationView(s);
  const Scalar mid = 0.5 * (s.times.front() + s.times.back());
  // All context observations are in the first half.
  EXPECT_LE(view.context.times.back(), mid + 1e-9);
  // All target entries are in the second half.
  for (Index i = 0; i < view.target.length(); ++i) {
    for (Index j = 0; j < view.target.num_features(); ++j) {
      if (view.target.mask.at(i, j) > 0) {
        EXPECT_GT(view.target.times[static_cast<std::size_t>(i)], mid);
      }
    }
  }
}

TEST(EncodingTest, NormalizedTimesSpanTen) {
  PhysioNetLikeConfig config;
  config.num_patients = 3;
  Dataset ds = MakePhysioNetLike(config);
  EncoderInputs enc = BuildEncoderInputs(ds.train.front());
  EXPECT_NEAR(enc.norm_times.front(), 0.0, 1e-12);
  EXPECT_NEAR(enc.norm_times.back(), 10.0, 1e-9);
  // Round trip.
  EXPECT_NEAR(enc.Normalize(ds.train.front().times.back()), 10.0, 1e-9);
}

TEST(EncodingTest, MaskedValuesZeroedInInputs) {
  data::IrregularSeries s;
  s.times = {0.0, 1.0};
  s.values = Tensor::FromRows(2, 2, {5.0, 7.0, 9.0, 11.0});
  s.mask = Tensor::FromRows(2, 2, {1, 0, 0, 1});
  EncoderInputs enc = BuildEncoderInputs(s);
  EXPECT_DOUBLE_EQ(enc.inputs.at(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(enc.inputs.at(0, 1), 0.0);  // masked out
  EXPECT_DOUBLE_EQ(enc.inputs.at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(enc.inputs.at(1, 1), 11.0);
  EXPECT_DOUBLE_EQ(enc.inputs.at(0, 2), 1.0);  // mask channel
  EXPECT_DOUBLE_EQ(enc.inputs.at(0, 3), 0.0);
}

// The f32 engine featurizes straight into float: every element must be the
// float rounding of the f64 feature (computed in f64 first), and the time
// map must not depend on the destination dtype.
TEST(EncodingTest, FloatRowsAreTheCastOfTheF64Rows) {
  PhysioNetLikeConfig config;
  config.num_patients = 3;
  const Dataset ds = MakePhysioNetLike(config);
  const IrregularSeries& s = ds.train.front();
  const Index n = s.length(), f = s.num_features();
  ASSERT_EQ(f, 37);
  const EncoderInputs enc = BuildEncoderInputs(s, 10.0);
  ASSERT_TRUE(enc.inputs.shape() == (Shape{n, 2 * f + 2}));
  bool masked = false;
  for (Index i = 0; i < n; ++i) {
    const Scalar t = (s.times[static_cast<std::size_t>(i)] - s.times.front()) *
                     (10.0 / (s.times.back() - s.times.front()));
    for (Index j = 0; j < f; ++j) {
      masked = masked || s.mask.at(i, j) == 0.0;
      EXPECT_EQ(enc.inputs.at(i, j), s.values.at(i, j) * s.mask.at(i, j));
      EXPECT_EQ(enc.inputs.at(i, f + j), s.mask.at(i, j));
    }
    EXPECT_EQ(enc.inputs.at(i, 2 * f), t);
    EXPECT_EQ(enc.norm_times[static_cast<std::size_t>(i)], t);
  }
  EXPECT_TRUE(masked);
  std::vector<float> rows(static_cast<std::size_t>(n * (2 * f + 2)));
  const EncoderInputs meta = FeaturizeInto(s, 10.0, rows.data());
  EXPECT_TRUE(meta.inputs.empty());  // no f64 rows built
  for (Index k = 0; k < enc.inputs.numel(); ++k) {
    const float want = static_cast<float>(enc.inputs[k]);
    std::uint32_t a, b;
    std::memcpy(&a, &rows[static_cast<std::size_t>(k)], sizeof(a));
    std::memcpy(&b, &want, sizeof(b));
    EXPECT_EQ(a, b) << "k=" << k;
  }
  EXPECT_EQ(meta.norm_times, enc.norm_times);
  EXPECT_EQ(meta.t_scale, enc.t_scale);
  EXPECT_EQ(meta.t_offset, enc.t_offset);
  EXPECT_EQ(enc.t_offset, s.times.front());
}

TEST(SeriesTest, SliceKeepsAlignment) {
  data::IrregularSeries s;
  s.times = {0.0, 1.0, 2.0, 3.0};
  s.values = Tensor::FromRows(4, 1, {10, 11, 12, 13});
  s.mask = Tensor::Ones(Shape{4, 1});
  s.label = 1;
  data::IrregularSeries sub = s.Slice(1, 2);
  EXPECT_EQ(sub.length(), 2);
  EXPECT_DOUBLE_EQ(sub.times[0], 1.0);
  EXPECT_DOUBLE_EQ(sub.values.at(1, 0), 12.0);
  EXPECT_EQ(sub.label, 1);
}

}  // namespace
}  // namespace diffode::data
