#include <gtest/gtest.h>

#include "ml/knn.h"
#include "ml/manifold.h"
#include "ml/matrix.h"
#include "util/rng.h"

namespace semdrift {
namespace {

TEST(KnnTest, SelfIsFirstNeighbor) {
  Matrix x(4, 1);
  x(0, 0) = 0;
  x(1, 0) = 1;
  x(2, 0) = 10;
  x(3, 0) = 11;
  auto neighborhoods = KNearestNeighbors(x, 1);
  ASSERT_EQ(neighborhoods.size(), 4u);
  EXPECT_EQ(neighborhoods[0][0], 0u);
  EXPECT_EQ(neighborhoods[0][1], 1u);
  EXPECT_EQ(neighborhoods[2][0], 2u);
  EXPECT_EQ(neighborhoods[2][1], 3u);
}

TEST(KnnTest, KLargerThanPopulationClamps) {
  Matrix x(3, 2);
  auto neighborhoods = KNearestNeighbors(x, 10);
  for (const auto& nb : neighborhoods) EXPECT_EQ(nb.size(), 3u);
}

TEST(KnnTest, EuclideanOrdering) {
  Matrix x(3, 2);
  x(0, 0) = 0;
  x(0, 1) = 0;
  x(1, 0) = 3;
  x(1, 1) = 0;
  x(2, 0) = 1;
  x(2, 1) = 1;
  auto neighborhoods = KNearestNeighbors(x, 2);
  // Nearest to row 0 is row 2 (d^2=2), then row 1 (d^2=9).
  EXPECT_EQ(neighborhoods[0][1], 2u);
  EXPECT_EQ(neighborhoods[0][2], 1u);
}

class ManifoldPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ManifoldPropertyTest, RegularizerIsSymmetricPsd) {
  Rng rng(GetParam());
  size_t n = 30;
  size_t r = 5;
  Matrix x(n, r);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < r; ++j) x(i, j) = rng.NextGaussian();
  ManifoldOptions options;
  options.k = 4;
  Matrix a = BuildManifoldRegularizer(x, options);
  ASSERT_EQ(a.rows(), r);
  ASSERT_EQ(a.cols(), r);
  // Symmetric.
  EXPECT_LT(a.MaxAbsDiff(a.Transpose()), 1e-10);
  // PSD (Lemma 1 / Theorem 1): all eigenvalues >= -eps.
  EigenResult eigen = SymmetricEigen(a);
  EXPECT_GE(eigen.values.front(), -1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ManifoldPropertyTest, ::testing::Values(1, 2, 3, 4, 5));

TEST(ManifoldTest, PenalizesDirectionsThatVaryLocally) {
  // Two tight clusters along dimension 0; dimension 1 is pure noise inside
  // each neighborhood. A linear function of dim 1 cannot be locally
  // predicted, so the regularizer must charge dim-1-aligned classifiers
  // more than dim-0-aligned ones (which are locally constant).
  Rng rng(42);
  size_t n = 60;
  Matrix x(n, 2);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = i < n / 2 ? -5.0 : 5.0;
    x(i, 1) = rng.NextGaussian();
  }
  ManifoldOptions options;
  options.k = 5;
  Matrix a = BuildManifoldRegularizer(x, options);
  // w aligned with the noisy dimension has larger quadratic cost.
  double cost_dim0 = a(0, 0);
  double cost_dim1 = a(1, 1);
  EXPECT_GT(cost_dim1, cost_dim0);
}

TEST(ManifoldTest, ZeroDataGivesZeroRegularizer) {
  Matrix x(10, 3);  // All zeros.
  ManifoldOptions options;
  options.k = 3;
  Matrix a = BuildManifoldRegularizer(x, options);
  EXPECT_LT(a.FrobeniusNormSq(), 1e-20);
}

TEST(ManifoldTest, LocalLambdaScalesPenalty) {
  Rng rng(7);
  Matrix x(20, 3);
  for (size_t i = 0; i < 20; ++i)
    for (size_t j = 0; j < 3; ++j) x(i, j) = rng.NextGaussian();
  ManifoldOptions small;
  small.k = 4;
  small.local_lambda = 0.1;
  ManifoldOptions large = small;
  large.local_lambda = 10.0;
  Matrix a_small = BuildManifoldRegularizer(x, small);
  Matrix a_large = BuildManifoldRegularizer(x, large);
  // Larger local ridge means local predictors fit worse, increasing the
  // disagreement penalty overall.
  EXPECT_GT(a_large.Trace(), a_small.Trace());
}

TEST(ManifoldTest, NonPositiveDefiniteLocalSystemReturnsEmpty) {
  // H G_i H has the constant vector in its null space, so with a negative
  // ridge H G_i H + lambda I is never positive definite.
  Rng rng(11);
  Matrix x(20, 3);
  for (size_t i = 0; i < 20; ++i)
    for (size_t j = 0; j < 3; ++j) x(i, j) = rng.NextGaussian();
  ManifoldOptions options;
  options.k = 4;
  options.local_lambda = -1.0;
  Matrix a = BuildManifoldRegularizer(x, options);
  EXPECT_EQ(a.rows(), 0u);
  EXPECT_EQ(a.cols(), 0u);
}

}  // namespace
}  // namespace semdrift
