#include "data/csv_loader.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "data/generators.h"

namespace diffode::data {
namespace {

std::string WriteTemp(const std::string& name, const std::string& content) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << content;
  return path;
}

TEST(CsvLoaderTest, ParsesSeriesWithHeaderMissingCellsAndLabels) {
  const std::string path = WriteTemp("basic.csv",
                                     "series_id,time,ch0,ch1,label\n"
                                     "a,0.5,1.0,,1\n"
                                     "a,1.5,2.0,3.0,1\n"
                                     "b,0.0,,4.0,0\n"
                                     "b,2.0,5.0,6.0,0\n");
  std::string error;
  auto series = LoadCsv(path, 2, /*has_label=*/true, &error);
  ASSERT_EQ(series.size(), 2u) << error;
  EXPECT_EQ(series[0].length(), 2);
  EXPECT_EQ(series[0].label, 1);
  EXPECT_DOUBLE_EQ(series[0].times[0], 0.5);
  EXPECT_DOUBLE_EQ(series[0].values.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(series[0].mask.at(0, 1), 0.0);  // missing cell
  EXPECT_DOUBLE_EQ(series[0].mask.at(1, 1), 1.0);
  EXPECT_EQ(series[1].label, 0);
  EXPECT_DOUBLE_EQ(series[1].mask.at(0, 0), 0.0);
  std::remove(path.c_str());
}

TEST(CsvLoaderTest, NoLabelColumn) {
  const std::string path = WriteTemp("nolabel.csv",
                                     "s,0.0,1.0\n"
                                     "s,1.0,2.0\n");
  std::string error;
  auto series = LoadCsv(path, 1, /*has_label=*/false, &error);
  ASSERT_EQ(series.size(), 1u) << error;
  EXPECT_EQ(series[0].label, -1);
}

TEST(CsvLoaderTest, RejectsWrongCellCount) {
  const std::string path = WriteTemp("badcells.csv", "s,0.0,1.0,2.0\n");
  std::string error;
  auto series = LoadCsv(path, 1, false, &error);
  EXPECT_TRUE(series.empty());
  EXPECT_NE(error.find("line 1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvLoaderTest, RejectsBackwardsTime) {
  const std::string path = WriteTemp("backwards.csv",
                                     "s,1.0,1.0\n"
                                     "s,0.5,2.0\n");
  std::string error;
  auto series = LoadCsv(path, 1, false, &error);
  EXPECT_TRUE(series.empty());
  EXPECT_NE(error.find("backwards"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvLoaderTest, RejectsGarbageValue) {
  const std::string path = WriteTemp("garbage.csv", "s,0.0,abc\n");
  std::string error;
  auto series = LoadCsv(path, 1, false, &error);
  EXPECT_TRUE(series.empty());
  EXPECT_NE(error.find("bad value"), std::string::npos);
  std::remove(path.c_str());
}

// Expects LoadCsv to reject `content` with `reason` on line 2.
void ExpectRejectedOnLine2(const std::string& content, bool has_label,
                           const std::string& reason) {
  const std::string path = WriteTemp("rejected.csv", content);
  std::string error;
  auto series = LoadCsv(path, 1, has_label, &error);
  EXPECT_TRUE(series.empty()) << content;
  EXPECT_NE(error.find("line 2: " + reason), std::string::npos)
      << content << " -> " << error;
  std::remove(path.c_str());
}

TEST(CsvLoaderTest, RejectsRepeatedTime) {
  ExpectRejectedOnLine2("s,1.0,1.0\ns,1.0,2.0\n", false,
                        "repeated time within series s");
  // Other series may share the time.
  const std::string path = WriteTemp("shared_time.csv",
                                     "s,1.0,1.0\n"
                                     "u,1.0,2.0\n");
  std::string error;
  EXPECT_EQ(LoadCsv(path, 1, false, &error).size(), 2u) << error;
  std::remove(path.c_str());
}

TEST(CsvLoaderTest, RejectsNonFiniteTime) {
  for (const char* t : {"nan", "inf", "-inf", "1e999"})
    ExpectRejectedOnLine2("s,0.0,1.0\ns," + std::string(t) + ",2.0\n",
                          false, "non-finite time");
  // A non-finite time on the first line is an error, not a header.
  const std::string path = WriteTemp("nan_first.csv", "s,nan,1.0\n");
  std::string error;
  EXPECT_TRUE(LoadCsv(path, 1, false, &error).empty());
  EXPECT_NE(error.find("line 1: non-finite time"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvLoaderTest, RejectsNonFiniteValue) {
  for (const char* v : {"nan", "NaN", "inf", "-inf", "1e999"})
    ExpectRejectedOnLine2("s,0.0,1.0\ns,1.0," + std::string(v) + "\n",
                          false, "non-finite value");
}

TEST(CsvLoaderTest, RejectsLabelThatIsNotANonNegativeInteger) {
  for (const char* l : {"nan", "inf", "-1", "1.5", "1e300"})
    ExpectRejectedOnLine2("s,0.0,1.0,0\ns,1.0,2.0," + std::string(l) + "\n",
                          true, "label is not a non-negative integer");
}

TEST(CsvLoaderTest, MissingFileReportsError) {
  std::string error;
  auto series = LoadCsv("/nonexistent/nowhere.csv", 1, false, &error);
  EXPECT_TRUE(series.empty());
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(CsvLoaderTest, RoundTripThroughSaveAndLoad) {
  // Generate a real dataset, save, reload, compare.
  UshcnLikeConfig config;
  config.num_stations = 6;
  config.num_days = 30;
  Dataset ds = MakeUshcnLike(config);
  const std::string path = ::testing::TempDir() + "/roundtrip.csv";
  ASSERT_TRUE(SaveCsv(ds.train, path));
  std::string error;
  auto loaded = LoadCsv(path, 5, /*has_label=*/false, &error);
  ASSERT_EQ(loaded.size(), ds.train.size()) << error;
  for (std::size_t k = 0; k < loaded.size(); ++k) {
    ASSERT_EQ(loaded[k].length(), ds.train[k].length());
    for (Index i = 0; i < loaded[k].length(); ++i) {
      EXPECT_NEAR(loaded[k].times[static_cast<std::size_t>(i)],
                  ds.train[k].times[static_cast<std::size_t>(i)], 1e-9);
      for (Index c = 0; c < 5; ++c) {
        EXPECT_EQ(loaded[k].mask.at(i, c), ds.train[k].mask.at(i, c));
        if (loaded[k].mask.at(i, c) > 0) {
          EXPECT_NEAR(loaded[k].values.at(i, c), ds.train[k].values.at(i, c),
                      1e-5);
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(CsvLoaderTest, RoundTripPreservesLabels) {
  SyntheticPeriodicConfig config;
  config.num_series = 10;
  config.grid_points = 8;
  Dataset ds = MakeSyntheticPeriodic(config);
  const std::string path = ::testing::TempDir() + "/labels.csv";
  ASSERT_TRUE(SaveCsv(ds.train, path));
  std::string error;
  auto loaded = LoadCsv(path, 1, /*has_label=*/true, &error);
  ASSERT_EQ(loaded.size(), ds.train.size()) << error;
  for (std::size_t k = 0; k < loaded.size(); ++k)
    EXPECT_EQ(loaded[k].label, ds.train[k].label);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace diffode::data
