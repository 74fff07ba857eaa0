#ifndef SEMDRIFT_DP_DETECTOR_H_
#define SEMDRIFT_DP_DETECTOR_H_

#include <memory>
#include <vector>

#include "dp/features.h"
#include "dp/seed_labeling.h"
#include "ml/kpca.h"
#include "ml/manifold.h"
#include "ml/multitask.h"
#include "ml/random_forest.h"
#include "text/ids.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/supervisor.h"

namespace semdrift {

/// A trained DP detector: maps an instance's feature vector (under a given
/// concept) to one of the three categories. Implementations are immutable
/// after training; Classify is const and thread-compatible.
class DpDetector {
 public:
  virtual ~DpDetector() = default;

  /// Classifies the instance whose features under concept `c` are `f`.
  virtual DpClass Classify(ConceptId c, const FeatureVector& f) const = 0;
};

/// Per-concept training material for detector learning: the live instances,
/// their features, and their seed labels (kUnlabeled where RULES 1-3 said
/// nothing — the unlabeled mass the semi-supervised methods exploit).
struct ConceptTrainingData {
  ConceptId concept_id;
  std::vector<InstanceId> instances;
  std::vector<FeatureVector> features;
  std::vector<DpClass> seed_labels;
};

using TrainingData = std::vector<ConceptTrainingData>;

/// Gathers training data for the given concepts from live KB state. Rows
/// whose feature vector holds NaN/Inf are left out (the guarded collector
/// below shares this gather and reports them).
TrainingData CollectTrainingData(const KnowledgeBase& kb, FeatureExtractor* features,
                                 const SeedLabeler& seeds,
                                 const std::vector<ConceptId>& concepts);

/// True when any concept carries at least one seed label.
bool HasLabeled(const TrainingData& data);

/// CollectTrainingData under supervision: each concept's gather runs in a
/// StageGuard (deadline + retries + planned faults); the rows left out for
/// NaN/Inf features are recorded as drops with provenance; exhausted
/// concepts are quarantined (or, fail-fast, abort with the error). With no
/// faults and no failures the result is bit-identical to
/// CollectTrainingData.
Result<TrainingData> CollectTrainingDataSupervised(
    const KnowledgeBase& kb, FeatureExtractor* features, const SeedLabeler& seeds,
    const std::vector<ConceptId>& concepts, Supervisor* supervisor);

/// The detector family ladder of Table 4.
enum class DetectorKind {
  kAdHoc1 = 0,  // Threshold on f1 (Property 1).
  kAdHoc2,      // Threshold on f2 (Property 2).
  kAdHoc3,      // Threshold on f3 (Property 3).
  kAdHoc4,      // Threshold on f4 (Property 4).
  kSupervised,  // Random forest on the raw features.
  kSemiSupervised,          // KPCA + manifold regularizer (Eq. 15).
  kSemiSupervisedMultiTask, // + l2,1 multi-task term (Eq. 18 / Algorithm 1).
};

/// Knobs shared by the learned detectors.
struct DetectorTrainOptions {
  KpcaOptions kpca;
  ManifoldOptions manifold;
  MultiTaskOptions multitask;
  RandomForestOptions forest;
  /// Unlabeled instances sampled per concept into the KPCA/manifold pool.
  int max_unlabeled_per_concept = 40;
  /// Hard cap on the pooled sample (eigen decomposition is O(n^3)).
  int max_pool_samples = 600;
  uint64_t seed = 7;
};

/// Short stable name, e.g. "ad-hoc-3", "semi-supervised-multitask".
const char* DetectorKindName(DetectorKind kind);

/// Trains a detector of the requested kind from `data`. For the ad-hoc and
/// supervised kinds only the labeled subset is used; the semi-supervised
/// kinds also consume unlabeled rows. Returns nullptr when `data` contains
/// no labeled instance at all.
std::unique_ptr<DpDetector> TrainDetector(DetectorKind kind, const TrainingData& data,
                                          const DetectorTrainOptions& options);

/// What TrainDetectorSupervised produced. `detector` may still be nullptr
/// when there was nothing to train on (no labeled seeds — same contract as
/// TrainDetector) or when even the fallback ladder failed.
struct SupervisedTrainResult {
  std::unique_ptr<DpDetector> detector;
  /// Why the requested kind was not trained (empty when it was).
  std::string detail;
};

/// TrainDetector under supervision: the train runs in a StageGuard keyed by
/// ComputeFaultPlan::kGlobalScope (training pools across concepts — it is a
/// global stage). A failed or nullptr-producing train is retried, then
/// degraded down the ad-hoc ladder (kAdHoc3, kAdHoc1) — the simplest
/// detectors with no numeric fitting to fail — and recorded as a detector
/// fallback in the health report. When the ladder trains nothing either,
/// fail-fast mode (quarantine off) returns the error of a primary that threw
/// or stalled; a primary that merely trained nothing (an untrainable pool)
/// returns no detector, as a pool without labels does.
Result<SupervisedTrainResult> TrainDetectorSupervised(
    DetectorKind kind, const TrainingData& data, const DetectorTrainOptions& options,
    Supervisor* supervisor);

/// Single-feature threshold detector (the Ad-hoc rows of Table 4): DP when
/// the feature falls on the learned side of the threshold; DP type decided
/// by a secondary threshold on f3 (Accidental DPs score low, Property 3).
class AdHocDetector : public DpDetector {
 public:
  AdHocDetector(int property_index, double threshold, bool dp_below,
                double type_threshold)
      : property_(property_index),
        threshold_(threshold),
        dp_below_(dp_below),
        type_threshold_(type_threshold) {}

  DpClass Classify(ConceptId c, const FeatureVector& f) const override;

  int property_index() const { return property_; }
  double threshold() const { return threshold_; }
  bool dp_below() const { return dp_below_; }

 private:
  int property_;  // 0-based feature index.
  double threshold_;
  bool dp_below_;
  double type_threshold_;
};

/// Random-forest detector over the raw 4-d features, pooled across concepts.
class ForestDetector : public DpDetector {
 public:
  explicit ForestDetector(RandomForest forest) : forest_(std::move(forest)) {}

  DpClass Classify(ConceptId c, const FeatureVector& f) const override;

 private:
  RandomForest forest_;
};

/// KPCA + linear per-concept classifiers (Eq. 15 or Algorithm 1). Concepts
/// without their own classifier (no labeled data) fall back to the mean
/// classifier across tasks — the cross-concept knowledge-sharing the paper
/// motivates for tail concepts.
class LinearKpcaDetector : public DpDetector {
 public:
  LinearKpcaDetector(KernelPca kpca, std::vector<std::pair<uint32_t, Matrix>> w,
                     Matrix fallback);

  DpClass Classify(ConceptId c, const FeatureVector& f) const override;

  /// Number of per-concept classifiers (tasks) trained.
  size_t num_tasks() const { return w_.size(); }

 private:
  KernelPca kpca_;
  std::vector<std::pair<uint32_t, Matrix>> w_;  // Sorted by concept value.
  Matrix fallback_;
};

}  // namespace semdrift

#endif  // SEMDRIFT_DP_DETECTOR_H_
