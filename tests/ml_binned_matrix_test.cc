#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "ml/binned_matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace semdrift {
namespace {

std::vector<std::vector<double>> Column(std::vector<double> values) {
  std::vector<std::vector<double>> x;
  for (double v : values) x.push_back({v});
  return x;
}

TEST(BinnedMatrixTest, LowCardinalityGetsOneBinPerDistinctValue) {
  auto binned = BinnedMatrix::Build(Column({3.0, 1.0, 2.0, 1.0, 3.0, 2.0}), 256);
  ASSERT_TRUE(binned.ok()) << binned.status().ToString();
  EXPECT_EQ(binned->num_rows(), 6u);
  EXPECT_EQ(binned->num_features(), 1u);
  EXPECT_EQ(binned->num_bins(0), 3);
  // Bins follow value order: 1.0 -> 0, 2.0 -> 1, 3.0 -> 2.
  EXPECT_EQ(binned->Bin(0, 0), 2);
  EXPECT_EQ(binned->Bin(0, 1), 0);
  EXPECT_EQ(binned->Bin(0, 2), 1);
  EXPECT_EQ(binned->Bin(0, 3), 0);
  // Thresholds are the midpoints between distinct values.
  EXPECT_DOUBLE_EQ(binned->Threshold(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(binned->Threshold(0, 1), 2.5);
}

TEST(BinnedMatrixTest, ThresholdsPartitionExactlyLikeBins) {
  // The split predicate "bin <= b" must coincide with "value <= Threshold(b)"
  // on every training value — that is what lets trees trained on bins
  // predict on raw doubles.
  Rng rng(11);
  std::vector<std::vector<double>> x;
  for (int i = 0; i < 2000; ++i) {
    x.push_back({rng.NextGaussian(), rng.NextDouble(-5.0, 5.0)});
  }
  auto binned = BinnedMatrix::Build(x, 64);
  ASSERT_TRUE(binned.ok());
  for (size_t f = 0; f < binned->num_features(); ++f) {
    for (int b = 0; b + 1 < binned->num_bins(f); ++b) {
      double threshold = binned->Threshold(f, b);
      for (size_t r = 0; r < x.size(); ++r) {
        EXPECT_EQ(binned->Bin(f, r) <= b, x[r][f] <= threshold)
            << "feature " << f << " bin " << b << " row " << r;
      }
    }
  }
}

TEST(BinnedMatrixTest, QuantileCutsRespectMaxBins) {
  Rng rng(7);
  std::vector<std::vector<double>> x;
  for (int i = 0; i < 10000; ++i) x.push_back({rng.NextDouble()});
  for (int max_bins : {2, 16, 64, 256}) {
    auto binned = BinnedMatrix::Build(x, max_bins);
    ASSERT_TRUE(binned.ok());
    EXPECT_LE(binned->num_bins(0), max_bins);
    EXPECT_GE(binned->num_bins(0), max_bins / 2);  // Uniform data fills bins.
  }
}

TEST(BinnedMatrixTest, SkewedDataDeduplicatesCuts) {
  // 99% of the mass on one value: most quantile boundaries collapse and must
  // be deduplicated, not emitted as equal (non-increasing) cuts.
  std::vector<std::vector<double>> x;
  for (int i = 0; i < 5000; ++i) x.push_back({0.0});
  for (int i = 0; i < 50; ++i) x.push_back({static_cast<double>(i + 1)});
  auto binned = BinnedMatrix::Build(x, 256);
  ASSERT_TRUE(binned.ok());
  EXPECT_GE(binned->num_bins(0), 2);
  for (int b = 0; b + 2 < binned->num_bins(0); ++b) {
    EXPECT_LT(binned->Threshold(0, b), binned->Threshold(0, b + 1));
  }
}

TEST(BinnedMatrixTest, ConstantFeatureGetsSingleBin) {
  auto binned = BinnedMatrix::Build(Column({5.0, 5.0, 5.0}), 256);
  ASSERT_TRUE(binned.ok());
  EXPECT_EQ(binned->num_bins(0), 1);
}

TEST(BinnedMatrixTest, RejectsDegenerateInput) {
  EXPECT_FALSE(BinnedMatrix::Build({}, 256).ok());
  EXPECT_FALSE(BinnedMatrix::Build({{}, {}}, 256).ok());       // Zero-width.
  EXPECT_FALSE(BinnedMatrix::Build({{1.0}, {1.0, 2.0}}, 256).ok());  // Ragged.
  EXPECT_FALSE(BinnedMatrix::Build(Column({1.0}), 1).ok());    // max_bins < 2.
  EXPECT_FALSE(BinnedMatrix::Build(Column({1.0}), 257).ok());  // > uint8 range.
  EXPECT_FALSE(
      BinnedMatrix::Build(Column({std::numeric_limits<double>::quiet_NaN()}), 256)
          .ok());
  EXPECT_FALSE(
      BinnedMatrix::Build(Column({std::numeric_limits<double>::infinity()}), 256)
          .ok());
}

TEST(BinnedMatrixTest, BuildIsThreadCountInvariant) {
  Rng rng(3);
  std::vector<std::vector<double>> x;
  for (int i = 0; i < 3000; ++i) {
    x.push_back({rng.NextGaussian(), rng.NextDouble(), rng.NextInt(0, 5) * 1.0});
  }
  SetGlobalThreadCount(1);
  auto serial = BinnedMatrix::Build(x, 128);
  ASSERT_TRUE(serial.ok());
  SetGlobalThreadCount(8);
  auto parallel = BinnedMatrix::Build(x, 128);
  ASSERT_TRUE(parallel.ok());
  SetGlobalThreadCount(0);
  ASSERT_EQ(serial->num_features(), parallel->num_features());
  for (size_t f = 0; f < serial->num_features(); ++f) {
    ASSERT_EQ(serial->num_bins(f), parallel->num_bins(f));
    for (int b = 0; b + 1 < serial->num_bins(f); ++b) {
      EXPECT_EQ(serial->Threshold(f, b), parallel->Threshold(f, b));
    }
    for (size_t r = 0; r < serial->num_rows(); ++r) {
      ASSERT_EQ(serial->Bin(f, r), parallel->Bin(f, r));
    }
  }
}

}  // namespace
}  // namespace semdrift
