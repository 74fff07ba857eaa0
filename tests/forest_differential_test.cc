// Differential tests for the histogram (binned) forest trainer against the
// exact-split trainer it replaced (per node: gather + sort each candidate
// feature column and scan every distinct-value boundary). The exact
// trainer's answers were recorded before it was removed and are checked in
// below as label strings and per-world decision digests, so these tests
// still hold the binned trainer to the exact trainer's own answers. The two
// are different algorithms — same model family, coarser split-candidate
// set — so the contract is *agreement*, not bit-identity: predictions must
// agree above a fixed floor on synthetic data, and at the pipeline level the
// supervised detector must make the same decisions on a broad sample of
// random worlds.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dp/detector.h"
#include "dp/features.h"
#include "dp/seed_labeling.h"
#include "ml/random_forest.h"
#include "mutex/mutex_index.h"
#include "rank/scorers.h"
#include "testing/random_structures.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "golden_digest.h"

namespace semdrift {
namespace {

/// The exact trainer's answers on the 600 blob points of each seed in
/// PredictionsAgreeWithExactTrainerAboveFloor (30 trees, seed = data seed).
/// It answered all 3000 points with their generating class, so every seed's
/// label string is "012" repeated.
std::string ExactBlobLabels() {
  std::string labels;
  for (int i = 0; i < 200; ++i) labels += "012";
  return labels;
}

/// The exact trainer's answers on the 400 points of
/// LowCardinalityFeaturesGiveIdenticalCandidates (20 trees, seed 3).
const char kExactLowCardinalityLabels[] =
    "000010001010010100001011111000011100111011010010011111111011011100110110"
    "101001011100000101100110111111100010111011101001010111100000010001010100"
    "000101010000111011001110111011101000110000010100000100011001000100001000"
    "111101001111001110010110101010011111001100010111110010000111101010101111"
    "111100110110011111101010101101010000001000010000101101011010100111110001"
    "1001110100111011001011011010110011100001";

/// Per random world of DetectorDecisionsMatchAcrossRandomWorlds: how many
/// instances the exact-trained supervised detector classified, and the
/// GoldenDigest of (concept, instance, decision) over them in task order.
struct WorldDecisions {
  uint64_t seed;
  int decisions;
  uint32_t digest;
};
const WorldDecisions kExactWorldDecisions[] = {
    {1, 24, 0x9904ad7cu},
    {2, 14, 0x959a499eu},
    {3, 54, 0xd53ba388u},
    {4, 43, 0x52b4c6bcu},
    {5, 30, 0xfad63f39u},
    {6, 5, 0xbc559d8fu},
    {7, 32, 0x56084e23u},
    {8, 21, 0x48ca423eu},
    {9, 43, 0x149a4c84u},
    {10, 41, 0x03783605u},
    {11, 37, 0xe285e253u},
    {12, 42, 0x4e3a3bc0u},
    {13, 12, 0xc7423e0eu},
    {14, 37, 0x1ee77d5au},
    {15, 26, 0x1691b079u},
    {16, 30, 0xc36f3ed3u},
    {17, 19, 0xc9de3996u},
    {18, 44, 0xc908e05cu},
    {19, 36, 0xa0ee174eu},
    {20, 0, 0x00000000u},  // No seed labels: no detector.
    {21, 27, 0xcfde1e26u},
    {22, 25, 0xf5d32a43u},
    {23, 25, 0xb115a32cu},
    {24, 6, 0x129063aau},
};

/// Gaussian blobs: a problem both trainers solve near-perfectly, so any
/// systematic binned/exact divergence shows up as agreement loss.
void MakeBlobData(size_t n, uint64_t seed, std::vector<std::vector<double>>* x,
                  std::vector<int>* y) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    int cls = static_cast<int>(i % 3);
    x->push_back({cls * 2.0 + 0.4 * rng.NextGaussian(),
                  -cls * 1.5 + 0.4 * rng.NextGaussian(),
                  rng.NextDouble(),
                  cls * 1.0 + 0.3 * rng.NextGaussian()});
    y->push_back(cls);
  }
}

TEST(ForestDifferentialTest, PredictionsAgreeWithExactTrainerAboveFloor) {
  const std::string exact = ExactBlobLabels();
  int agree = 0;
  int total = 0;
  for (uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    std::vector<std::vector<double>> x;
    std::vector<int> y;
    MakeBlobData(600, seed, &x, &y);
    ASSERT_EQ(x.size(), exact.size());
    RandomForestOptions options;
    options.num_trees = 30;
    options.seed = seed;
    RandomForest binned;
    ASSERT_TRUE(binned.Fit(x, y, 3, options).ok());
    for (size_t i = 0; i < x.size(); ++i) {
      agree += binned.Predict(x[i]) == exact[i] - '0';
      ++total;
    }
  }
  // Fixed floor: the two trainers disagree only near decision boundaries.
  EXPECT_GE(agree, static_cast<int>(0.97 * total))
      << agree << "/" << total << " predictions agree";
}

TEST(ForestDifferentialTest, LowCardinalityFeaturesGiveIdenticalCandidates) {
  // When every feature has <= max_bins distinct values, the binned cut set
  // IS the exact midpoint set, so both trainers see the same candidate
  // thresholds and (same seed) produce trees predicting identically.
  Rng rng(9);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 400; ++i) {
    x.push_back({static_cast<double>(rng.NextBounded(12)),
                 static_cast<double>(rng.NextBounded(5))});
    y.push_back((x.back()[0] > 5.0) == (x.back()[1] > 2.0) ? 1 : 0);
  }
  const std::string exact = kExactLowCardinalityLabels;
  ASSERT_EQ(exact.size(), x.size());
  RandomForestOptions options;
  options.num_trees = 20;
  options.seed = 3;
  RandomForest binned;
  ASSERT_TRUE(binned.Fit(x, y, 2, options).ok());
  int agree = 0;
  for (size_t i = 0; i < x.size(); ++i) agree += binned.Predict(x[i]) == exact[i] - '0';
  EXPECT_GE(agree, static_cast<int>(0.99 * x.size()));
}

TEST(ForestDifferentialTest, DetectorDecisionsMatchAcrossRandomWorlds) {
  // Pipeline-level differential: across >= 20 random worlds, the supervised
  // detector trained with the binned forest must classify every live
  // instance exactly like the one trained with the exact forest did (its
  // decisions are pinned per world as a digest). Worlds whose seed labeler
  // produces no labels train no detector; the seed range is wide enough
  // that many worlds do train one.
  int worlds_with_detector = 0;
  int decisions = 0;
  for (const WorldDecisions& golden : kExactWorldDecisions) {
    const uint64_t seed = golden.seed;
    World world = property::RandomWorld(seed);
    size_t num_sentences = 0;
    KnowledgeBase kb = property::RandomKb(world, seed, &num_sentences);
    std::vector<ConceptId> scope;
    for (size_t c = 0; c < world.num_concepts(); ++c) {
      scope.push_back(ConceptId(static_cast<uint32_t>(c)));
    }
    MutexIndex mutex(kb, scope.size());
    ScoreCache scores(&kb, RankModel::kRandomWalk);
    scores.Warm(scope);
    FeatureExtractor features(&kb, &mutex, &scores);
    SeedLabeler seeds(&kb, &mutex, [&world](const IsAPair& p) {
      return world.IsVerified(p.concept_id, p.instance);
    });
    TrainingData data = CollectTrainingData(kb, &features, seeds, scope);
    std::unique_ptr<DpDetector> binned;
    if (HasLabeled(data)) {
      DetectorTrainOptions options;
      options.seed = seed;
      // A bigger-than-default forest, as when the exact answers were
      // recorded: the two trainers grow slightly different trees
      // (different per-node RNG streams), so the per-instance majority vote
      // needs enough trees to be stable on boundary cases.
      options.forest.num_trees = 300;
      binned = TrainDetector(DetectorKind::kSupervised, data, options);
    }
    if (binned == nullptr) {
      EXPECT_EQ(golden.decisions, 0) << "world seed " << seed;
      continue;
    }
    ++worlds_with_detector;
    GoldenDigest digest;
    int world_decisions = 0;
    for (const ConceptTrainingData& task : data) {
      for (size_t i = 0; i < task.instances.size(); ++i) {
        digest.U32(task.concept_id.value);
        digest.U32(task.instances[i].value);
        digest.U32(static_cast<uint32_t>(
            binned->Classify(task.concept_id, task.features[i])));
        ++world_decisions;
      }
    }
    EXPECT_EQ(world_decisions, golden.decisions) << "world seed " << seed;
    EXPECT_EQ(digest.value(), golden.digest) << "world seed " << seed;
    decisions += world_decisions;
  }
  // The property only bites if the sweep actually exercised trained
  // detectors on real instances.
  EXPECT_GE(worlds_with_detector, 5) << "seed range trained too few detectors";
  EXPECT_GT(decisions, 100);
}

TEST(ForestDifferentialTest, BinnedForestIsBitIdenticalAcrossThreadCounts) {
  // Agreement with the exact trainer's answers is statistical; determinism
  // of the binned trainer itself is exact. 1, 2 and 8 threads must produce
  // byte-identical probability vectors.
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  MakeBlobData(500, 77, &x, &y);
  RandomForestOptions options;
  options.num_trees = 24;
  options.seed = 77;
  std::vector<std::vector<double>> baseline;
  for (int threads : {1, 2, 8}) {
    SetGlobalThreadCount(threads);
    RandomForest forest;
    ASSERT_TRUE(forest.Fit(x, y, 3, options).ok());
    std::vector<std::vector<double>> proba;
    for (const auto& point : x) proba.push_back(forest.PredictProba(point));
    if (baseline.empty()) {
      baseline = std::move(proba);
      continue;
    }
    EXPECT_EQ(proba, baseline) << "threads " << threads;
  }
  SetGlobalThreadCount(0);
}

}  // namespace
}  // namespace semdrift
