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
// the digests stand in for them as the oracle. The KPCA, Algorithm-1,
// classify and clean digests were recorded before the detector's kernels
// moved to pool fan-out and cache-friendly layouts (transposed alphas and
// eigenvector accumulator, parallel per-task solves), which must leave
// every bit in place.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dp/cleaner.h"
#include "dp/detector.h"
#include "dp/features.h"
#include "dp/seed_labeling.h"
#include "eval/experiment.h"
#include "ml/kpca.h"
#include "ml/manifold.h"
#include "ml/multitask.h"
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
constexpr uint32_t kKpcaDigest = 0x10ad8d14u;
constexpr uint32_t kMultiTaskDigest = 0x0d943574u;
constexpr uint32_t kClassifyDigest = 0x94774ef4u;
constexpr uint32_t kCleanDigest = 0x8480aaffu;

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

/// Everything the default detector computes on the fixture at one thread
/// count, stage by stage.
struct DetectorRun {
  std::vector<double> eigenvalues;
  std::vector<double> alphas;  // Component-major: alpha(i, p) at p * n + i.
  Matrix projected;            // The pool through TransformMatrix.
  Matrix manifold;             // Eq. 17 regularizer over `projected`.
  std::vector<Matrix> w;       // Algorithm 1's per-task classifiers.
  std::vector<double> objective_trace;
  std::vector<int> decisions;  // LinearKpcaDetector::Classify, scope order.
};

TEST_F(ParallelDeterminismTest, LinearKpcaDetectorIsThreadCountInvariant) {
  // The KPCA fit, projection, manifold regularizer, Algorithm-1 solve and
  // per-instance classify of the default detector, each compared bit for
  // bit across thread counts and pinned by digest.
  MutexIndex mutex(*kb_, scope_.size());
  ScoreCache scores(kb_, RankModel::kRandomWalk);
  scores.Warm(scope_);
  FeatureExtractor features(kb_, &mutex, &scores);
  SeedLabeler seeds(kb_, &mutex, experiment_->MakeVerifiedSource());
  TrainingData data = CollectTrainingData(*kb_, &features, seeds, scope_);
  ASSERT_TRUE(HasLabeled(data));
  DetectorTrainOptions options;

  // A deterministic stride sample of every collected row, capped at the
  // detector's pool size.
  std::vector<FeatureVector> rows;
  for (const ConceptTrainingData& entry : data) {
    rows.insert(rows.end(), entry.features.begin(), entry.features.end());
  }
  const size_t cap = static_cast<size_t>(options.max_pool_samples);
  const size_t stride = (rows.size() + cap - 1) / cap;
  Matrix pool((rows.size() + stride - 1) / stride, 4);
  for (size_t i = 0; i < pool.rows(); ++i) {
    for (size_t j = 0; j < 4; ++j) pool(i, j) = rows[i * stride][j];
  }

  std::vector<DetectorRun> runs;
  for (int threads : kThreadCounts) {
    SetGlobalThreadCount(threads);
    DetectorRun run;
    KernelPca kpca;
    ASSERT_TRUE(kpca.Fit(pool, options.kpca));
    const size_t r = kpca.num_components();
    run.eigenvalues = kpca.eigenvalues();
    for (size_t p = 0; p < r; ++p) {
      for (size_t i = 0; i < pool.rows(); ++i) run.alphas.push_back(kpca.alpha(i, p));
    }
    run.projected = kpca.TransformMatrix(pool);
    run.manifold = BuildManifoldRegularizer(run.projected, options.manifold);

    std::vector<LearningTask> tasks;
    for (const ConceptTrainingData& entry : data) {
      LearningTask task;
      std::vector<size_t> labeled;
      for (size_t i = 0; i < entry.instances.size(); ++i) {
        if (entry.seed_labels[i] != DpClass::kUnlabeled) labeled.push_back(i);
      }
      if (labeled.empty()) continue;
      task.xl = Matrix(labeled.size(), r);
      task.y = Matrix(labeled.size(), 3);
      for (size_t row = 0; row < labeled.size(); ++row) {
        const FeatureVector& f = entry.features[labeled[row]];
        std::vector<double> x = kpca.Transform(std::vector<double>(f.begin(), f.end()));
        for (size_t p = 0; p < r; ++p) task.xl(row, p) = x[p];
        task.y(row, static_cast<size_t>(entry.seed_labels[labeled[row]])) = 1.0;
      }
      tasks.push_back(std::move(task));
    }
    ASSERT_GT(tasks.size(), 1u);
    MultiTaskResult solved = TrainMultiTask(tasks, run.manifold, options.multitask);
    run.w = std::move(solved.w);
    run.objective_trace = std::move(solved.objective_trace);

    std::unique_ptr<DpDetector> detector =
        TrainDetector(DetectorKind::kSemiSupervisedMultiTask, data, options);
    ASSERT_NE(detector, nullptr);
    for (ConceptId c : scope_) {
      for (InstanceId e : kb_->LiveInstancesOf(c)) {
        run.decisions.push_back(static_cast<int>(detector->Classify(c, features.Extract(c, e))));
      }
    }
    runs.push_back(std::move(run));
  }

  const DetectorRun& base = runs.front();
  for (size_t t = 1; t < runs.size(); ++t) {
    const DetectorRun& run = runs[t];
    const int threads = kThreadCounts[t];
    EXPECT_EQ(run.eigenvalues, base.eigenvalues) << "threads " << threads;
    EXPECT_EQ(run.alphas, base.alphas) << "threads " << threads;
    EXPECT_EQ(run.projected.MaxAbsDiff(base.projected), 0.0) << "threads " << threads;
    EXPECT_EQ(run.manifold.MaxAbsDiff(base.manifold), 0.0) << "threads " << threads;
    ASSERT_EQ(run.w.size(), base.w.size());
    for (size_t c = 0; c < run.w.size(); ++c) {
      EXPECT_EQ(run.w[c].MaxAbsDiff(base.w[c]), 0.0) << "task " << c << " threads " << threads;
    }
    EXPECT_EQ(run.objective_trace, base.objective_trace) << "threads " << threads;
    EXPECT_EQ(run.decisions, base.decisions) << "threads " << threads;
  }

  auto matrix_bits = [](GoldenDigest* digest, const Matrix& m) {
    digest->U32(static_cast<uint32_t>(m.rows()));
    digest->U32(static_cast<uint32_t>(m.cols()));
    for (size_t i = 0; i < m.rows(); ++i) {
      for (size_t j = 0; j < m.cols(); ++j) digest->F64(m(i, j));
    }
  };
  GoldenDigest kpca_digest;
  kpca_digest.U32(static_cast<uint32_t>(base.eigenvalues.size()));
  for (double v : base.eigenvalues) kpca_digest.F64(v);
  for (double v : base.alphas) kpca_digest.F64(v);
  matrix_bits(&kpca_digest, base.projected);
  matrix_bits(&kpca_digest, base.manifold);
  EXPECT_EQ(kpca_digest.value(), kKpcaDigest);

  GoldenDigest multitask_digest;
  multitask_digest.U32(static_cast<uint32_t>(base.w.size()));
  for (const Matrix& wc : base.w) matrix_bits(&multitask_digest, wc);
  for (double v : base.objective_trace) multitask_digest.F64(v);
  EXPECT_EQ(multitask_digest.value(), kMultiTaskDigest);

  GoldenDigest classify_digest;
  classify_digest.U32(static_cast<uint32_t>(base.decisions.size()));
  for (int decision : base.decisions) classify_digest.U32(static_cast<uint32_t>(decision));
  EXPECT_EQ(classify_digest.value(), kClassifyDigest);
}

TEST_F(ParallelDeterminismTest, DpCleanIsThreadCountInvariant) {
  // The whole default clean (detector training and classify every round,
  // Eq. 21 arbitration, rollbacks) on a fresh extraction per thread count.
  std::vector<uint32_t> digests;
  for (int threads : kThreadCounts) {
    SetGlobalThreadCount(threads);
    KnowledgeBase kb = experiment_->Extract();
    DpCleaner cleaner(&experiment_->corpus().sentences,
                      experiment_->MakeVerifiedSource(),
                      experiment_->world().num_concepts(), CleanerOptions{});
    CleaningReport report = cleaner.Clean(&kb, scope_);
    ASSERT_GT(report.records_rolled_back, 0u);
    GoldenDigest digest;
    for (const std::vector<IsAPair>* dps : {&report.accidental_dps, &report.intentional_dps}) {
      digest.U32(static_cast<uint32_t>(dps->size()));
      for (const IsAPair& pair : *dps) {
        digest.U32(pair.concept_id.value);
        digest.U32(pair.instance.value);
      }
    }
    digest.U64(report.records_rolled_back);
    digest.U32(static_cast<uint32_t>(report.rounds));
    digest.U64(report.live_pairs_after);
    digests.push_back(digest.value());
  }
  for (size_t t = 0; t < digests.size(); ++t) {
    EXPECT_EQ(digests[t], kCleanDigest) << "threads " << kThreadCounts[t];
  }
}

}  // namespace
}  // namespace semdrift
