#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "ml/random_forest.h"
#include "util/rng.h"

namespace semdrift {
namespace {

/// Two-feature XOR-ish dataset a single linear cut cannot solve.
void MakeXorData(size_t n, Rng* rng, std::vector<std::vector<double>>* x,
                 std::vector<int>* y) {
  for (size_t i = 0; i < n; ++i) {
    double a = rng->NextDouble() < 0.5 ? 0.0 : 1.0;
    double b = rng->NextDouble() < 0.5 ? 0.0 : 1.0;
    x->push_back({a + 0.05 * rng->NextGaussian(), b + 0.05 * rng->NextGaussian()});
    y->push_back(static_cast<int>(a) ^ static_cast<int>(b));
  }
}

/// Fits one tree on every row of `x`.
DecisionTree FitTree(const std::vector<std::vector<double>>& x,
                     const std::vector<int>& y, const RandomForestOptions& options,
                     uint64_t node_seed_base) {
  DecisionTree tree;
  auto binned = BinnedMatrix::Build(x, options.max_bins);
  if (!binned.ok()) {
    ADD_FAILURE() << binned.status().ToString();
    return tree;
  }
  std::vector<uint32_t> all(x.size());
  for (uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  tree.Fit(*binned, y, std::move(all), 2, options, node_seed_base);
  return tree;
}

TEST(DecisionTreeTest, FitsPureLeafOnConstantLabels) {
  DecisionTree tree = FitTree({{0.0}, {1.0}, {2.0}}, {1, 1, 1},
                              RandomForestOptions{}, /*node_seed_base=*/1);
  EXPECT_EQ(tree.num_nodes(), 1u);
  const auto& counts = tree.Leaf({0.5});
  EXPECT_EQ(counts[1], 3);
  EXPECT_EQ(tree.stats().histogram_builds, 0u);  // A pure root never scans.
}

TEST(DecisionTreeTest, SplitsSimpleThreshold) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 20; ++i) {
    x.push_back({static_cast<double>(i)});
    y.push_back(i < 10 ? 0 : 1);
  }
  DecisionTree tree = FitTree(x, y, RandomForestOptions{}, /*node_seed_base=*/17);
  EXPECT_EQ(tree.num_nodes(), 3u);
  EXPECT_GT(tree.Leaf({3.0})[0], 0);
  EXPECT_EQ(tree.Leaf({3.0})[1], 0);
  EXPECT_GT(tree.Leaf({15.0})[1], 0);
  // 20 distinct values fit in 256 bins, so the cut is the midpoint 9.5.
  EXPECT_EQ(tree.Leaf({9.49})[1], 0);
  EXPECT_EQ(tree.Leaf({9.51})[0], 0);
  EXPECT_GE(tree.stats().histogram_builds, 1u);
}

TEST(DecisionTreeTest, WorklistSurvivesPathologicalChainDepth) {
  // Alternating labels over a single monotone feature make the best gini
  // split peel one sample off an end at every node: the tree degenerates to
  // a chain roughly as deep as the sample count. A recursive trainer would
  // put one stack frame per chain link; the explicit worklist must grow
  // this shape comfortably. Depth is capped by the bin count, so with one
  // distinct value per bin every sample ends in its own leaf.
  const int n = BinnedMatrix::kMaxBins;
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < n; ++i) {
    x.push_back({static_cast<double>(i)});
    y.push_back(i % 2);
  }
  RandomForestOptions options;
  options.max_depth = std::numeric_limits<int>::max();
  options.min_samples_leaf = 1;
  DecisionTree tree = FitTree(x, y, options, /*node_seed_base=*/13);
  // n single-sample leaves: 2n - 1 nodes, the depth was not truncated.
  EXPECT_EQ(tree.num_nodes(), static_cast<size_t>(2 * n - 1));
  EXPECT_EQ(tree.stats().nodes, tree.num_nodes());
  // The tree still classifies the training points.
  EXPECT_GT(tree.Leaf({0.0})[0], 0);
  EXPECT_GT(tree.Leaf({1.0})[1], 0);

  // Past the bin count the tree stops at bin resolution, but the worklist
  // must not blow up either.
  x.clear();
  y.clear();
  for (int i = 0; i < 2500; ++i) {
    x.push_back({static_cast<double>(i)});
    y.push_back(i % 2);
  }
  EXPECT_GT(FitTree(x, y, options, /*node_seed_base=*/13).num_nodes(), 100u);
}

TEST(RandomForestTest, LearnsXor) {
  Rng rng(3);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  MakeXorData(400, &rng, &x, &y);
  RandomForest forest;
  RandomForestOptions options;
  options.num_trees = 30;
  ASSERT_TRUE(forest.Fit(x, y, 2, options).ok());
  int correct = 0;
  for (size_t i = 0; i < x.size(); ++i) correct += forest.Predict(x[i]) == y[i];
  EXPECT_GT(correct, static_cast<int>(0.95 * x.size()));
}

TEST(RandomForestTest, CoarseBinsStillLearn) {
  Rng rng(21);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  MakeXorData(400, &rng, &x, &y);
  RandomForest forest;
  RandomForestOptions options;
  options.num_trees = 30;
  options.max_bins = 16;
  ASSERT_TRUE(forest.Fit(x, y, 2, options).ok());
  int correct = 0;
  for (size_t i = 0; i < x.size(); ++i) correct += forest.Predict(x[i]) == y[i];
  EXPECT_GT(correct, static_cast<int>(0.9 * x.size()));
}

TEST(RandomForestTest, ThreeClasses) {
  Rng rng(5);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 300; ++i) {
    int cls = i % 3;
    x.push_back({cls * 2.0 + 0.2 * rng.NextGaussian(),
                 -cls * 1.5 + 0.2 * rng.NextGaussian()});
    y.push_back(cls);
  }
  RandomForest forest;
  RandomForestOptions options;
  options.num_trees = 25;
  ASSERT_TRUE(forest.Fit(x, y, 3, options).ok());
  int correct = 0;
  for (size_t i = 0; i < x.size(); ++i) correct += forest.Predict(x[i]) == y[i];
  EXPECT_GT(correct, 290);
  auto proba = forest.PredictProba({0.0, 0.0});
  EXPECT_EQ(proba.size(), 3u);
  double total = proba[0] + proba[1] + proba[2];
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(proba[0], proba[2]);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  Rng rng(7);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  MakeXorData(200, &rng, &x, &y);
  RandomForestOptions options;
  options.num_trees = 10;
  options.seed = 99;
  RandomForest a;
  ASSERT_TRUE(a.Fit(x, y, 2, options).ok());
  RandomForest b;
  ASSERT_TRUE(b.Fit(x, y, 2, options).ok());
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(a.Predict(x[i]), b.Predict(x[i]));
    EXPECT_EQ(a.PredictProba(x[i]), b.PredictProba(x[i]));
  }
  EXPECT_EQ(a.fit_stats().nodes, b.fit_stats().nodes);
  EXPECT_EQ(a.fit_stats().histogram_builds, b.fit_stats().histogram_builds);
  EXPECT_EQ(a.fit_stats().histogram_subtractions,
            b.fit_stats().histogram_subtractions);
}

TEST(RandomForestTest, SubtractionTrickActuallyFires) {
  Rng rng(15);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  MakeXorData(600, &rng, &x, &y);
  RandomForest forest;
  RandomForestOptions options;
  options.num_trees = 10;
  ASSERT_TRUE(forest.Fit(x, y, 2, options).ok());
  // Internal (histogram-carrying) nodes outnumber scans: every split's
  // larger child derives its histogram from parent - sibling.
  EXPECT_GT(forest.fit_stats().histogram_subtractions, 0u);
  EXPECT_LT(forest.fit_stats().histogram_builds, forest.fit_stats().nodes);
}

TEST(RandomForestTest, MinSamplesLeafLimitsDepth) {
  Rng rng(9);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  MakeXorData(100, &rng, &x, &y);
  RandomForestOptions coarse;
  coarse.num_trees = 1;
  coarse.min_samples_leaf = 50;
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y, 2, coarse).ok());
  // With leaves of >= 50 samples, a 100-sample tree has at most 3 nodes.
  EXPECT_EQ(forest.num_trees(), 1u);
}

TEST(RandomForestTest, MaxDepthZeroGivesStumps) {
  Rng rng(11);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  MakeXorData(60, &rng, &x, &y);
  RandomForestOptions options;
  options.num_trees = 5;
  options.max_depth = 0;
  RandomForest forest;
  ASSERT_TRUE(forest.Fit(x, y, 2, options).ok());
  // Depth-0 trees are single leaves: prediction equals the majority class.
  auto proba = forest.PredictProba({0.0, 0.0});
  EXPECT_NEAR(proba[0] + proba[1], 1.0, 1e-9);
}

TEST(RandomForestTest, RejectsDegenerateInput) {
  // These used to be a release-stripped assert (x[0] on an empty x is UB);
  // now every caller gets a Status and an empty, harmless forest.
  RandomForestOptions options;
  options.num_trees = 3;
  RandomForest forest;
  // Empty training set.
  EXPECT_FALSE(forest.Fit({}, {}, 2, options).ok());
  EXPECT_EQ(forest.num_trees(), 0u);
  // Zero-width feature vectors.
  EXPECT_FALSE(forest.Fit({{}, {}}, {0, 1}, 2, options).ok());
  EXPECT_EQ(forest.num_trees(), 0u);
  // Ragged rows.
  EXPECT_FALSE(forest.Fit({{1.0}, {1.0, 2.0}}, {0, 1}, 2, options).ok());
  // Label/row count mismatch.
  EXPECT_FALSE(forest.Fit({{1.0}, {2.0}}, {0}, 2, options).ok());
  // Labels outside [0, num_classes).
  EXPECT_FALSE(forest.Fit({{1.0}, {2.0}}, {0, 2}, 2, options).ok());
  EXPECT_FALSE(forest.Fit({{1.0}, {2.0}}, {0, -1}, 2, options).ok());
  // Non-finite features cannot be quantized.
  EXPECT_FALSE(
      forest.Fit({{std::numeric_limits<double>::quiet_NaN()}, {1.0}}, {0, 1}, 2,
                 options)
          .ok());
  // Degenerate options.
  options.num_trees = 0;
  EXPECT_FALSE(forest.Fit({{1.0}, {2.0}}, {0, 1}, 2, options).ok());
  options.num_trees = 3;
  options.max_bins = 1;
  EXPECT_FALSE(forest.Fit({{1.0}, {2.0}}, {0, 1}, 2, options).ok());
  options.max_bins = 300;
  EXPECT_FALSE(forest.Fit({{1.0}, {2.0}}, {0, 1}, 2, options).ok());
  options.max_bins = 256;
  // A failed fit leaves no stale trees behind from a previous good fit.
  ASSERT_TRUE(forest.Fit({{1.0}, {2.0}}, {0, 1}, 2, options).ok());
  EXPECT_EQ(forest.num_trees(), 3u);
  EXPECT_FALSE(forest.Fit({}, {}, 2, options).ok());
  EXPECT_EQ(forest.num_trees(), 0u);
}

}  // namespace
}  // namespace semdrift
