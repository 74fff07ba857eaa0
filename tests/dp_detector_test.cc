#include <gtest/gtest.h>

#include "dp/detector.h"
#include "util/rng.h"

namespace semdrift {
namespace {

/// Synthetic, feature-level training data with a known planted structure:
///   non-DPs:        f1 high, f2 = 0, f3 ~ 1.5, f4 high
///   Intentional DP: f1 low,  f2 >= 1, f3 ~ 1.5, f4 low
///   Accidental DP:  f1 ~ 0,  f2 >= 1, f3 ~ 0.1, f4 ~ 0
TrainingData MakePlantedData(int concepts, int per_class, uint64_t seed,
                             double unlabeled_fraction = 0.0) {
  Rng rng(seed);
  TrainingData data;
  uint32_t instance_id = 0;
  for (int c = 0; c < concepts; ++c) {
    ConceptTrainingData entry;
    entry.concept_id = ConceptId(static_cast<uint32_t>(c));
    auto add = [&](DpClass cls, FeatureVector f) {
      entry.instances.push_back(InstanceId(instance_id++));
      entry.features.push_back(f);
      entry.seed_labels.push_back(rng.NextBool(unlabeled_fraction)
                                      ? DpClass::kUnlabeled
                                      : cls);
    };
    for (int i = 0; i < per_class; ++i) {
      add(DpClass::kNonDP, {0.5 + 0.2 * rng.NextDouble(), 0.0,
                            1.2 + rng.NextDouble(), 1.0 + rng.NextDouble()});
      add(DpClass::kIntentionalDP,
          {0.05 * rng.NextDouble(), 1.0 + static_cast<double>(rng.NextBounded(3)),
           1.2 + rng.NextDouble(), 0.1 * rng.NextDouble()});
      add(DpClass::kAccidentalDP,
          {0.01 * rng.NextDouble(), 1.0, 0.05 + 0.1 * rng.NextDouble(),
           0.02 * rng.NextDouble()});
    }
    data.push_back(std::move(entry));
  }
  return data;
}

double AccuracyOn(const DpDetector& detector, const TrainingData& data,
                  const TrainingData& truth_source) {
  size_t hits = 0;
  size_t total = 0;
  for (size_t c = 0; c < data.size(); ++c) {
    for (size_t i = 0; i < data[c].instances.size(); ++i) {
      DpClass truth = truth_source[c].seed_labels[i];
      if (truth == DpClass::kUnlabeled) continue;
      ++total;
      hits += detector.Classify(data[c].concept_id, data[c].features[i]) == truth;
    }
  }
  return total > 0 ? static_cast<double>(hits) / total : 0.0;
}

TEST(AdHocDetectorTest, LearnsThresholdDirectionAndType) {
  TrainingData data = MakePlantedData(3, 20, 1);
  DetectorTrainOptions options;
  auto detector = TrainDetector(DetectorKind::kAdHoc1, data, options);
  ASSERT_NE(detector, nullptr);
  // f1 below threshold -> DP.
  auto* adhoc = dynamic_cast<AdHocDetector*>(detector.get());
  ASSERT_NE(adhoc, nullptr);
  EXPECT_TRUE(adhoc->dp_below());
  EXPECT_EQ(adhoc->property_index(), 0);
  // Classifies planted prototypes.
  EXPECT_EQ(detector->Classify(ConceptId(0), {0.6, 0.0, 1.5, 1.5}),
            DpClass::kNonDP);
  EXPECT_EQ(detector->Classify(ConceptId(0), {0.01, 2.0, 1.5, 0.05}),
            DpClass::kIntentionalDP);
  EXPECT_EQ(detector->Classify(ConceptId(0), {0.0, 1.0, 0.05, 0.0}),
            DpClass::kAccidentalDP);
}

TEST(AdHocDetectorTest, F2DirectionIsAbove) {
  TrainingData data = MakePlantedData(3, 20, 2);
  DetectorTrainOptions options;
  auto detector = TrainDetector(DetectorKind::kAdHoc2, data, options);
  ASSERT_NE(detector, nullptr);
  auto* adhoc = dynamic_cast<AdHocDetector*>(detector.get());
  ASSERT_NE(adhoc, nullptr);
  EXPECT_FALSE(adhoc->dp_below());  // DPs have larger f2.
}

TEST(AdHocDetectorTest, NullWhenNoLabels) {
  TrainingData data = MakePlantedData(2, 10, 3, /*unlabeled_fraction=*/1.0);
  DetectorTrainOptions options;
  EXPECT_EQ(TrainDetector(DetectorKind::kAdHoc1, data, options), nullptr);
}

TEST(AdHocDetectorTest, NullWhenSingleClass) {
  TrainingData data;
  ConceptTrainingData entry;
  entry.concept_id = ConceptId(0);
  for (int i = 0; i < 5; ++i) {
    entry.instances.push_back(InstanceId(i));
    entry.features.push_back({0.5, 0, 1, 1});
    entry.seed_labels.push_back(DpClass::kNonDP);
  }
  data.push_back(std::move(entry));
  EXPECT_EQ(TrainDetector(DetectorKind::kAdHoc1, data, DetectorTrainOptions{}),
            nullptr);
}

TEST(SupervisedDetectorTest, HighAccuracyOnPlantedData) {
  TrainingData data = MakePlantedData(4, 25, 5);
  DetectorTrainOptions options;
  auto detector = TrainDetector(DetectorKind::kSupervised, data, options);
  ASSERT_NE(detector, nullptr);
  EXPECT_GT(AccuracyOn(*detector, data, data), 0.97);
}

TEST(SemiSupervisedDetectorTest, LearnsWithUnlabeledMass) {
  TrainingData labeled = MakePlantedData(4, 25, 7, /*unlabeled_fraction=*/0.0);
  TrainingData data = MakePlantedData(4, 25, 7, /*unlabeled_fraction=*/0.7);
  DetectorTrainOptions options;
  auto detector = TrainDetector(DetectorKind::kSemiSupervised, data, options);
  ASSERT_NE(detector, nullptr);
  // Evaluate against the fully-labeled twin (same features, same seed).
  EXPECT_GT(AccuracyOn(*detector, data, labeled), 0.85);
}

TEST(MultiTaskDetectorTest, LearnsAcrossConcepts) {
  // This pool's centered kernel only converges through the QL solver's
  // norm-relative split test (SymmetricEigen); without it KPCA fails.
  TrainingData labeled = MakePlantedData(5, 20, 9, 0.0);
  TrainingData data = MakePlantedData(5, 20, 9, 0.6);
  DetectorTrainOptions options;
  auto detector =
      TrainDetector(DetectorKind::kSemiSupervisedMultiTask, data, options);
  ASSERT_NE(detector, nullptr);
  EXPECT_GT(AccuracyOn(*detector, data, labeled), 0.85);
}

TEST(MultiTaskDetectorTest, FallbackServesConceptsWithoutLabels) {
  TrainingData data = MakePlantedData(3, 20, 11);
  // Add a concept with purely unlabeled rows.
  ConceptTrainingData orphan;
  orphan.concept_id = ConceptId(99);
  for (int i = 0; i < 10; ++i) {
    orphan.instances.push_back(InstanceId(1000 + i));
    orphan.features.push_back({0.6, 0.0, 1.4, 1.2});
    orphan.seed_labels.push_back(DpClass::kUnlabeled);
  }
  data.push_back(std::move(orphan));
  DetectorTrainOptions options;
  auto detector =
      TrainDetector(DetectorKind::kSemiSupervisedMultiTask, data, options);
  ASSERT_NE(detector, nullptr);
  // Orphan concept gets the fallback classifier and still classifies the
  // prototypical non-DP correctly.
  EXPECT_EQ(detector->Classify(ConceptId(99), {0.6, 0.0, 1.4, 1.2}),
            DpClass::kNonDP);
}

TEST(DetectorDeterminismTest, SameSeedSameDetector) {
  TrainingData data = MakePlantedData(3, 15, 13, 0.5);
  DetectorTrainOptions options;
  options.seed = 5;
  auto a = TrainDetector(DetectorKind::kSemiSupervisedMultiTask, data, options);
  auto b = TrainDetector(DetectorKind::kSemiSupervisedMultiTask, data, options);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    FeatureVector f{rng.NextDouble(), static_cast<double>(rng.NextBounded(3)),
                    2 * rng.NextDouble(), 2 * rng.NextDouble()};
    EXPECT_EQ(a->Classify(ConceptId(0), f), b->Classify(ConceptId(0), f));
  }
}

TEST(CollectTrainingDataTest, SkipsEmptyConcepts) {
  KnowledgeBase kb;
  kb.ApplyExtraction(SentenceId(0), ConceptId(0), {InstanceId(1)}, {}, 1);
  MutexIndex mutex(kb, 2);
  ScoreCache scores(&kb, RankModel::kRandomWalk);
  FeatureExtractor features(&kb, &mutex, &scores);
  SeedLabeler seeds(&kb, &mutex, [](const IsAPair&) { return false; });
  TrainingData data = CollectTrainingData(
      kb, &features, seeds, {ConceptId(0), ConceptId(1)});
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0].concept_id, ConceptId(0));
  EXPECT_EQ(data[0].instances.size(), 1u);
  EXPECT_EQ(data[0].features.size(), 1u);
  EXPECT_EQ(data[0].seed_labels.size(), 1u);
}

}  // namespace
}  // namespace semdrift
