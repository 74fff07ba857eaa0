#ifndef SEMDRIFT_ML_RANDOM_FOREST_H_
#define SEMDRIFT_ML_RANDOM_FOREST_H_

#include <cstdint>
#include <vector>

#include "ml/binned_matrix.h"
#include "util/status.h"

namespace semdrift {

/// Random-forest options. The paper's Supervised baseline (Table 4) uses a
/// random forest "observed as a good classifier to our task".
struct RandomForestOptions {
  int num_trees = 100;
  int max_depth = 12;
  int min_samples_leaf = 2;
  /// Bins per feature, in [2, 256]. Smaller is faster but quantizes
  /// candidate thresholds more coarsely.
  int max_bins = 256;
  uint64_t seed = 42;
};

/// A CART-style decision tree (gini impurity, axis-aligned splits) grown on
/// a bootstrap sample with ceil(sqrt(d)) candidate features per split. Per
/// node it accumulates per-bin class counts over a pre-binned feature-major
/// matrix in one linear pass and scans bin boundaries, deriving one child's
/// histogram from parent - sibling (the subtraction trick). It grows via an
/// explicit frontier worklist — no recursion — so pathological max_depth /
/// adversarial data cannot overflow the stack. Used through RandomForest but
/// exposed for unit tests.
class DecisionTree {
 public:
  /// Per-tree growth counters, accumulated deterministically.
  struct GrowthStats {
    uint64_t nodes = 0;
    uint64_t histogram_builds = 0;        // Histograms filled by row scan.
    uint64_t histogram_subtractions = 0;  // Derived as parent - sibling.
  };

  /// Fits on rows `rows` (bootstrap row ids into `binned`/`y`, duplicates
  /// allowed, consumed as the in-place partition scratch). Nodes draw
  /// feature subsets from per-node RNG streams seeded by
  /// TaskSeed(node_seed_base, node_id), and frontier nodes at each depth fan
  /// out over the thread pool, so the grown tree is bit-identical at any
  /// thread count.
  void Fit(const BinnedMatrix& binned, const std::vector<int>& y,
           std::vector<uint32_t> rows, int num_classes,
           const RandomForestOptions& options, uint64_t node_seed_base);

  /// Class-count distribution at the leaf reached by `point`.
  const std::vector<int>& Leaf(const std::vector<double>& point) const;

  size_t num_nodes() const { return nodes_.size(); }
  const GrowthStats& stats() const { return stats_; }

 private:
  struct Node {
    int feature = -1;          // -1 for leaves.
    double threshold = 0.0;
    int32_t left = -1;
    int32_t right = -1;
    std::vector<int> counts;   // Populated for leaves.
  };

  std::vector<Node> nodes_;
  GrowthStats stats_;
};

/// Bagged ensemble of DecisionTrees with soft (probability-averaged) voting.
class RandomForest {
 public:
  /// Forest-level fit counters: per-tree GrowthStats summed in tree order.
  struct FitStats {
    uint64_t nodes = 0;
    uint64_t histogram_builds = 0;
    uint64_t histogram_subtractions = 0;
    double binning_ms = 0.0;  // One-time quantization.
  };

  /// Fits the ensemble. `y` holds class labels in [0, num_classes). Trees
  /// are grown in parallel on the global thread pool; each tree uses its own
  /// deterministic RNG stream derived from `options.seed`, so the fitted
  /// forest is bit-identical at any thread count. Fails with
  /// InvalidArgument (leaving the forest empty) on an empty training set,
  /// zero-width or ragged feature rows, labels outside [0, num_classes),
  /// non-finite feature values, or out-of-range options.
  Status Fit(const std::vector<std::vector<double>>& x, const std::vector<int>& y,
             int num_classes, const RandomForestOptions& options);

  /// Class-probability estimate for a point.
  std::vector<double> PredictProba(const std::vector<double>& point) const;

  /// Argmax class.
  int Predict(const std::vector<double>& point) const;

  size_t num_trees() const { return trees_.size(); }
  int num_classes() const { return num_classes_; }
  const FitStats& fit_stats() const { return fit_stats_; }

 private:
  std::vector<DecisionTree> trees_;
  int num_classes_ = 0;
  FitStats fit_stats_;
};

}  // namespace semdrift

#endif  // SEMDRIFT_ML_RANDOM_FOREST_H_
