// The determinism contract of the parallel pipeline: every parallelized
// stage produces *bit-identical* output at any thread count (ordered
// reductions + per-task RNG streams). These tests run each stage at 1, 2,
// and 8 threads over the same small experiment and require exact equality —
// EXPECT_EQ on doubles, not EXPECT_NEAR. This is what lets `--threads`
// change only wall-clock time while preserving checkpoint byte-identity.
//
// Each stage's output is also pinned as a golden CRC32 digest. The score,
// training-data and mutex digests were recorded while the pre-flattening
// implementations (hash-map graph build and walk, per-instance F1 core
// rebuild, serial mutex build) still existed and reproduced these outputs
// exactly on this fixture (the mutex similarities as a sorted multiset), so
// the digests stand in for them as the oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dp/detector.h"
#include "dp/features.h"
#include "dp/seed_labeling.h"
#include "eval/experiment.h"
#include "ml/random_forest.h"
#include "mutex/mutex_index.h"
#include "rank/scorers.h"
#include "util/thread_pool.h"
#include "golden_digest.h"

namespace semdrift {
namespace {

const int kThreadCounts[] = {1, 2, 8};

// Golden digests of each stage's output on the fixture below.
constexpr uint32_t kScoreMapsDigest = 0xc546e3beu;
constexpr uint32_t kTrainingDataDigest = 0x87c488d1u;
constexpr uint32_t kMutexDigest = 0xa290ca83u;
constexpr uint32_t kForestDigest = 0x7c7a8de2u;

/// One small extracted KB shared by every stage check.
class ParallelDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExperimentConfig config = PaperScaleConfig(0.05);
    config.seed = 2014;
    experiment_ = Experiment::Build(config).release();
    kb_ = new KnowledgeBase(experiment_->Extract());
    for (size_t c = 0; c < experiment_->world().num_concepts(); ++c) {
      scope_.push_back(ConceptId(static_cast<uint32_t>(c)));
    }
  }

  static void TearDownTestSuite() {
    delete kb_;
    delete experiment_;
    kb_ = nullptr;
    experiment_ = nullptr;
    scope_.clear();
  }

  void TearDown() override { SetGlobalThreadCount(0); }

  static Experiment* experiment_;
  static KnowledgeBase* kb_;
  static std::vector<ConceptId> scope_;
};

Experiment* ParallelDeterminismTest::experiment_ = nullptr;
KnowledgeBase* ParallelDeterminismTest::kb_ = nullptr;
std::vector<ConceptId> ParallelDeterminismTest::scope_;

TEST_F(ParallelDeterminismTest, ScoreCacheWarmUpIsThreadCountInvariant) {
  std::vector<std::unordered_map<InstanceId, double>> baseline;
  for (int threads : kThreadCounts) {
    SetGlobalThreadCount(threads);
    ScoreCache scores(kb_, RankModel::kRandomWalk);
    scores.Warm(scope_);
    std::vector<std::unordered_map<InstanceId, double>> maps;
    for (ConceptId c : scope_) maps.push_back(scores.Concept(c));
    if (baseline.empty()) {
      baseline = std::move(maps);
      continue;
    }
    ASSERT_EQ(maps.size(), baseline.size());
    for (size_t i = 0; i < maps.size(); ++i) {
      // Exact equality, map-wide: same keys, bit-identical doubles.
      EXPECT_EQ(maps[i], baseline[i]) << "concept " << i << " threads " << threads;
    }
  }
  // Map contents in instance-id order, so the digest is independent of
  // hash-map iteration order.
  GoldenDigest digest;
  for (size_t i = 0; i < scope_.size(); ++i) {
    std::vector<std::pair<uint32_t, double>> sorted;
    for (const auto& [e, score] : baseline[i]) sorted.emplace_back(e.value, score);
    std::sort(sorted.begin(), sorted.end());
    digest.U32(scope_[i].value);
    digest.U32(static_cast<uint32_t>(sorted.size()));
    for (const auto& [e, score] : sorted) {
      digest.U32(e);
      digest.F64(score);
    }
  }
  EXPECT_EQ(digest.value(), kScoreMapsDigest);
}

TEST_F(ParallelDeterminismTest, CollectTrainingDataIsThreadCountInvariant) {
  TrainingData baseline;
  for (int threads : kThreadCounts) {
    SetGlobalThreadCount(threads);
    MutexIndex mutex(*kb_, scope_.size());
    ScoreCache scores(kb_, RankModel::kRandomWalk);
    scores.Warm(scope_);
    FeatureExtractor features(kb_, &mutex, &scores);
    SeedLabeler seeds(kb_, &mutex, [](const IsAPair&) { return false; });
    TrainingData data = CollectTrainingData(*kb_, &features, seeds, scope_);
    if (baseline.empty()) {
      baseline = std::move(data);
      ASSERT_FALSE(baseline.empty());
      continue;
    }
    ASSERT_EQ(data.size(), baseline.size()) << "threads " << threads;
    for (size_t c = 0; c < data.size(); ++c) {
      EXPECT_EQ(data[c].concept_id.value, baseline[c].concept_id.value);
      EXPECT_EQ(data[c].instances, baseline[c].instances);
      EXPECT_EQ(data[c].features, baseline[c].features);  // Bit-exact doubles.
      EXPECT_EQ(data[c].seed_labels, baseline[c].seed_labels);
    }
  }
  GoldenDigest digest;
  for (const ConceptTrainingData& entry : baseline) {
    digest.U32(entry.concept_id.value);
    digest.U32(static_cast<uint32_t>(entry.instances.size()));
    for (size_t i = 0; i < entry.instances.size(); ++i) {
      digest.U32(entry.instances[i].value);
      for (double f : entry.features[i]) digest.F64(f);
      digest.U32(static_cast<uint32_t>(entry.seed_labels[i]));
    }
  }
  EXPECT_EQ(digest.value(), kTrainingDataDigest);
}

TEST_F(ParallelDeterminismTest, MutexIndexIsThreadCountInvariant) {
  std::vector<double> baseline_sims;
  std::vector<int> baseline_f2;
  for (int threads : kThreadCounts) {
    SetGlobalThreadCount(threads);
    MutexIndex mutex(*kb_, scope_.size());
    std::vector<double> sims = mutex.NonZeroSimilarities();
    std::vector<int> f2;
    for (ConceptId c : scope_) {
      for (InstanceId e : kb_->LiveInstancesOf(c)) f2.push_back(mutex.F2Count(c, e));
    }
    if (baseline_sims.empty() && baseline_f2.empty()) {
      baseline_sims = std::move(sims);
      baseline_f2 = std::move(f2);
      continue;
    }
    EXPECT_EQ(sims, baseline_sims) << "threads " << threads;
    EXPECT_EQ(f2, baseline_f2) << "threads " << threads;
  }
  GoldenDigest digest;
  digest.U32(static_cast<uint32_t>(baseline_sims.size()));
  for (double sim : baseline_sims) digest.F64(sim);
  digest.U32(static_cast<uint32_t>(baseline_f2.size()));
  for (int count : baseline_f2) digest.U32(static_cast<uint32_t>(count));
  EXPECT_EQ(digest.value(), kMutexDigest);
}

TEST_F(ParallelDeterminismTest, RandomForestFitIsThreadCountInvariant) {
  // Training data comes from the shared KB. The trainer parallelizes across
  // trees (per-tree RNG streams seeded by tree index) and *inside* each tree
  // (per-feature histogram scans, per-pair frontier work, per-node RNG
  // streams seeded by deterministically assigned node ids); fitting at any
  // thread count must give bit-identical probabilities.
  MutexIndex mutex(*kb_, scope_.size());
  ScoreCache scores(kb_, RankModel::kRandomWalk);
  scores.Warm(scope_);
  FeatureExtractor features(kb_, &mutex, &scores);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (ConceptId c : scope_) {
    for (InstanceId e : kb_->LiveInstancesOf(c)) {
      FeatureVector f = features.Extract(c, e);
      x.push_back({f[0], f[1], f[2], f[3]});
      y.push_back(static_cast<int>(x.size()) % 3);
    }
  }
  ASSERT_GT(x.size(), 10u);

  std::vector<std::vector<double>> baseline;
  RandomForest::FitStats baseline_stats{};
  for (int threads : kThreadCounts) {
    SetGlobalThreadCount(threads);
    RandomForest forest;
    RandomForestOptions options;
    options.num_trees = 40;
    ASSERT_TRUE(forest.Fit(x, y, 3, options).ok());
    std::vector<std::vector<double>> proba;
    for (const auto& point : x) proba.push_back(forest.PredictProba(point));
    if (baseline.empty()) {
      baseline = std::move(proba);
      baseline_stats = forest.fit_stats();
      continue;
    }
    EXPECT_EQ(proba, baseline) << "threads " << threads;
    // Structural stats (node/histogram counts) are part of the contract
    // too: a forest that predicts identically but was built differently
    // would still break checkpoint byte-identity.
    EXPECT_EQ(forest.fit_stats().nodes, baseline_stats.nodes)
        << "threads " << threads;
    EXPECT_EQ(forest.fit_stats().histogram_builds, baseline_stats.histogram_builds)
        << "threads " << threads;
    EXPECT_EQ(forest.fit_stats().histogram_subtractions,
              baseline_stats.histogram_subtractions)
        << "threads " << threads;
  }
  GoldenDigest digest;
  for (const auto& row : baseline) {
    for (double p : row) digest.F64(p);
  }
  digest.U64(baseline_stats.nodes);
  digest.U64(baseline_stats.histogram_builds);
  digest.U64(baseline_stats.histogram_subtractions);
  EXPECT_EQ(digest.value(), kForestDigest);
}

}  // namespace
}  // namespace semdrift
