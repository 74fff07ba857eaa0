#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace semdrift {

namespace {

double Gini(const uint32_t* counts, int num_classes, uint32_t total) {
  if (total == 0) return 0.0;
  double impurity = 1.0;
  for (int c = 0; c < num_classes; ++c) {
    double p = static_cast<double>(counts[c]) / total;
    impurity -= p * p;
  }
  return impurity;
}

}  // namespace

void DecisionTree::Fit(const BinnedMatrix& binned, const std::vector<int>& y,
                       std::vector<uint32_t> rows, int num_classes,
                       const RandomForestOptions& options, uint64_t node_seed_base) {
  nodes_.clear();
  stats_ = GrowthStats{};
  const int C = num_classes;
  const size_t d = binned.num_features();
  const size_t hist_size = binned.total_bins() * static_cast<size_t>(C);
  const uint32_t min_leaf =
      static_cast<uint32_t>(std::max(1, options.min_samples_leaf));
  const size_t features_per_node =
      static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(d))));

  nodes_.emplace_back();
  if (rows.empty()) {
    nodes_[0].counts.assign(C, 0);
    stats_.nodes = 1;
    return;
  }

  auto count_classes = [&](size_t begin, size_t end) {
    std::vector<uint32_t> counts(C, 0);
    for (size_t i = begin; i < end; ++i) ++counts[y[rows[i]]];
    return counts;
  };

  auto is_leaf_pre = [&](const std::vector<uint32_t>& counts, size_t total,
                         int depth) {
    int nonzero = 0;
    for (uint32_t c : counts) nonzero += c > 0 ? 1 : 0;
    return nonzero <= 1 || depth >= options.max_depth ||
           total < 2 * static_cast<size_t>(min_leaf);
  };

  // One linear pass over the node's rows per feature, accumulating per-bin
  // class counts into the [feature][bin][class] layout. Feature slices are
  // disjoint, so the root scan (which covers every bootstrap row) fans the
  // features out over the pool.
  auto scan_hist = [&](size_t begin, size_t end, uint32_t* hist,
                       bool parallel_features) {
    auto body = [&](size_t f) {
      const uint8_t* column = binned.Column(f);
      uint32_t* h = hist + binned.hist_offset(f) * C;
      for (size_t i = begin; i < end; ++i) {
        uint32_t r = rows[i];
        ++h[static_cast<size_t>(column[r]) * C + y[r]];
      }
    };
    if (parallel_features) {
      ParallelFor(d, body);
    } else {
      for (size_t f = 0; f < d; ++f) body(f);
    }
  };

  // What one node's split search produced. `hist` rides along on a split so
  // the children can derive one side by subtraction.
  struct Outcome {
    bool split = false;
    int feature = -1;
    int bin = -1;
    double threshold = 0.0;
    size_t mid = 0;
    std::vector<uint32_t> hist;
    std::vector<uint32_t> left_counts, right_counts;
  };

  // Histogram split search + in-place partition of the node's row range.
  // The feature subset comes from an RNG stream keyed by the node id, which
  // is assigned deterministically (breadth-first, left before right) — so
  // concurrent frontier processing cannot perturb the grown tree.
  auto process_node = [&](int32_t node_id, size_t begin, size_t end,
                          const std::vector<uint32_t>& counts, int depth,
                          std::vector<uint32_t> hist, Outcome* out) {
    const size_t total = end - begin;
    if (hist.empty() || is_leaf_pre(counts, total, depth)) return;  // Leaf.

    Rng rng(TaskSeed(node_seed_base, static_cast<uint64_t>(node_id)));
    std::vector<size_t> features(d);
    for (size_t f = 0; f < d; ++f) features[f] = f;
    rng.Shuffle(&features);
    features.resize(std::min(features_per_node, d));

    const double parent_impurity =
        Gini(counts.data(), C, static_cast<uint32_t>(total));
    double best_score = parent_impurity - 1e-12;
    int best_feature = -1;
    int best_bin = -1;
    std::vector<uint32_t> left(C);
    std::vector<uint32_t> right(C);
    for (size_t f : features) {
      const int nb = binned.num_bins(f);
      if (nb < 2) continue;  // Constant feature: nothing to split.
      const uint32_t* h = hist.data() + binned.hist_offset(f) * C;
      std::fill(left.begin(), left.end(), 0u);
      uint32_t left_total = 0;
      for (int b = 0; b + 1 < nb; ++b) {
        for (int c = 0; c < C; ++c) {
          left[c] += h[static_cast<size_t>(b) * C + c];
          left_total += h[static_cast<size_t>(b) * C + c];
        }
        const uint32_t right_total = static_cast<uint32_t>(total) - left_total;
        if (left_total < min_leaf || right_total < min_leaf) continue;
        for (int c = 0; c < C; ++c) right[c] = counts[c] - left[c];
        double score = (left_total * Gini(left.data(), C, left_total) +
                        right_total * Gini(right.data(), C, right_total)) /
                       total;
        if (score < best_score) {
          best_score = score;
          best_feature = static_cast<int>(f);
          best_bin = b;
        }
      }
    }
    if (best_feature < 0) return;  // Leaf.

    out->left_counts.assign(C, 0);
    const uint32_t* h = hist.data() + binned.hist_offset(best_feature) * C;
    for (int b = 0; b <= best_bin; ++b) {
      for (int c = 0; c < C; ++c) {
        out->left_counts[c] += h[static_cast<size_t>(b) * C + c];
      }
    }
    out->right_counts.resize(C);
    for (int c = 0; c < C; ++c) out->right_counts[c] = counts[c] - out->left_counts[c];

    const uint8_t* column = binned.Column(best_feature);
    size_t mid = begin;
    for (size_t i = begin; i < end; ++i) {
      if (column[rows[i]] <= best_bin) {
        std::swap(rows[i], rows[mid]);
        ++mid;
      }
    }
    if (mid == begin || mid == end) return;  // Leaf (unreachable: min_leaf >= 1).

    out->split = true;
    out->feature = best_feature;
    out->bin = best_bin;
    out->threshold = binned.Threshold(best_feature, best_bin);
    out->mid = mid;
    out->hist = std::move(hist);
  };

  struct ChildRef {
    int32_t node = -1;
    size_t begin = 0, end = 0;
    std::vector<uint32_t> counts;
    int depth = 0;
  };
  struct PairTask {
    std::vector<uint32_t> parent_hist;
    ChildRef child[2];
  };
  struct PairResult {
    Outcome out[2];
    uint64_t scans = 0, subtractions = 0;
  };

  // Writes the node decided by `out` and, on a split, allocates the two
  // child ids (left before right — the deterministic numbering the per-node
  // RNG streams key off) and enqueues their shared pair task.
  auto apply_outcome = [&](int32_t node_id, size_t begin, size_t end,
                           const std::vector<uint32_t>& counts, int depth,
                           Outcome& out, std::vector<PairTask>* next) {
    if (!out.split) {
      nodes_[node_id].counts.assign(counts.begin(), counts.end());
      return;
    }
    int32_t left_id = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
    int32_t right_id = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_[node_id].feature = out.feature;
    nodes_[node_id].threshold = out.threshold;
    nodes_[node_id].left = left_id;
    nodes_[node_id].right = right_id;
    PairTask task;
    task.parent_hist = std::move(out.hist);
    task.child[0] =
        ChildRef{left_id, begin, out.mid, std::move(out.left_counts), depth + 1};
    task.child[1] =
        ChildRef{right_id, out.mid, end, std::move(out.right_counts), depth + 1};
    next->push_back(std::move(task));
  };

  // Root: one full scan (feature-parallel), then the frontier loop.
  std::vector<PairTask> frontier;
  {
    std::vector<uint32_t> root_counts = count_classes(0, rows.size());
    std::vector<uint32_t> hist;
    if (!is_leaf_pre(root_counts, rows.size(), 0)) {
      hist.assign(hist_size, 0);
      scan_hist(0, rows.size(), hist.data(), /*parallel_features=*/true);
      ++stats_.histogram_builds;
    }
    Outcome root_out;
    process_node(0, 0, rows.size(), root_counts, 0, std::move(hist), &root_out);
    apply_outcome(0, 0, rows.size(), root_counts, 0, root_out, &frontier);
  }

  while (!frontier.empty()) {
    std::vector<PairResult> results(frontier.size());
    const bool lone_pair = frontier.size() == 1;
    // Each pair owns a disjoint slice of `rows` and writes only its own
    // result slot — an ordered reduction, so frontier-level parallelism
    // cannot change the tree.
    auto process_pair = [&](size_t i) {
      PairTask& task = frontier[i];
      PairResult& res = results[i];
      bool need[2];
      for (int s = 0; s < 2; ++s) {
        const ChildRef& ch = task.child[s];
        need[s] = !is_leaf_pre(ch.counts, ch.end - ch.begin, ch.depth);
      }
      std::vector<uint32_t> hist[2];
      if (need[0] || need[1]) {
        const int small = task.child[0].end - task.child[0].begin <=
                                  task.child[1].end - task.child[1].begin
                              ? 0
                              : 1;
        const int large = 1 - small;
        const size_t small_rows = task.child[small].end - task.child[small].begin;
        const size_t large_rows = task.child[large].end - task.child[large].begin;
        // The subtraction trick: scan only the smaller child and derive the
        // larger as parent - sibling. When just the larger child needs a
        // histogram, fall back to a direct scan if that is cheaper than a
        // small-scan + full-histogram subtraction.
        if (need[small] || small_rows * d + hist_size < large_rows * d) {
          hist[small].assign(hist_size, 0);
          scan_hist(task.child[small].begin, task.child[small].end,
                    hist[small].data(), lone_pair);
          ++res.scans;
          if (need[large]) {
            hist[large] = std::move(task.parent_hist);
            const uint32_t* sub = hist[small].data();
            uint32_t* h = hist[large].data();
            for (size_t k = 0; k < hist_size; ++k) h[k] -= sub[k];
            ++res.subtractions;
          }
          if (!need[small]) hist[small].clear();
        } else {
          hist[large].assign(hist_size, 0);
          scan_hist(task.child[large].begin, task.child[large].end,
                    hist[large].data(), lone_pair);
          ++res.scans;
        }
      }
      for (int s = 0; s < 2; ++s) {
        const ChildRef& ch = task.child[s];
        process_node(ch.node, ch.begin, ch.end, ch.counts, ch.depth,
                     std::move(hist[s]), &res.out[s]);
      }
    };
    if (lone_pair) {
      process_pair(0);
    } else {
      ParallelFor(frontier.size(), process_pair);
    }

    std::vector<PairTask> next;
    for (size_t i = 0; i < frontier.size(); ++i) {
      stats_.histogram_builds += results[i].scans;
      stats_.histogram_subtractions += results[i].subtractions;
      for (int s = 0; s < 2; ++s) {
        ChildRef& ch = frontier[i].child[s];
        apply_outcome(ch.node, ch.begin, ch.end, ch.counts, ch.depth,
                      results[i].out[s], &next);
      }
    }
    frontier = std::move(next);
  }
  stats_.nodes = nodes_.size();
}

const std::vector<int>& DecisionTree::Leaf(const std::vector<double>& point) const {
  int32_t node = 0;
  for (;;) {
    const Node& n = nodes_[node];
    if (n.feature < 0) return n.counts;
    node = point[n.feature] <= n.threshold ? n.left : n.right;
  }
}

Status RandomForest::Fit(const std::vector<std::vector<double>>& x,
                         const std::vector<int>& y, int num_classes,
                         const RandomForestOptions& options) {
  trees_.clear();
  num_classes_ = 0;
  fit_stats_ = FitStats{};
  if (x.empty()) {
    return Status::InvalidArgument("random forest: empty training set");
  }
  if (y.size() != x.size()) {
    return Status::InvalidArgument(
        "random forest: " + std::to_string(x.size()) + " rows but " +
        std::to_string(y.size()) + " labels");
  }
  const size_t d = x[0].size();
  if (d == 0) {
    return Status::InvalidArgument("random forest: zero-width feature vectors");
  }
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].size() != d) {
      return Status::InvalidArgument(
          "random forest: ragged row " + std::to_string(i) + " has " +
          std::to_string(x[i].size()) + " features, expected " +
          std::to_string(d));
    }
  }
  if (num_classes < 1) {
    return Status::InvalidArgument("random forest: num_classes " +
                                   std::to_string(num_classes) + " < 1");
  }
  for (size_t i = 0; i < y.size(); ++i) {
    if (y[i] < 0 || y[i] >= num_classes) {
      return Status::InvalidArgument(
          "random forest: label " + std::to_string(y[i]) + " at row " +
          std::to_string(i) + " outside [0, " + std::to_string(num_classes) + ")");
    }
  }
  if (options.num_trees < 1) {
    return Status::InvalidArgument("random forest: num_trees " +
                                   std::to_string(options.num_trees) + " < 1");
  }

  num_classes_ = num_classes;
  Timer binning;
  Result<BinnedMatrix> binned = BinnedMatrix::Build(x, options.max_bins);
  if (!binned.ok()) return binned.status();
  fit_stats_.binning_ms = binning.ElapsedMillis();
  const BinnedMatrix& bm = *binned;

  // Bootstraps are class-balanced: an equal-probability class draw, then a
  // uniform member of that class. Without it a rare class (the paper's
  // Intentional DPs are ~3% of seeds) is almost never predicted.
  std::vector<std::vector<uint32_t>> by_class(num_classes);
  for (size_t i = 0; i < y.size(); ++i) {
    by_class[y[i]].push_back(static_cast<uint32_t>(i));
  }
  std::vector<int> present;
  for (int k = 0; k < num_classes; ++k) {
    if (!by_class[k].empty()) present.push_back(k);
  }
  // Each tree draws its bootstrap and grows from its own seeded RNG stream
  // (TaskSeed(seed, t)), so trees are independent and the trained forest is
  // bit-identical whether trees are grown serially or across the pool.
  trees_.assign(options.num_trees, DecisionTree());
  ParallelFor(trees_.size(), [&](size_t t) {
    Rng rng(TaskSeed(options.seed, t));
    std::vector<uint32_t> bootstrap(x.size());
    for (uint32_t& row : bootstrap) {
      const auto& rows = by_class[present[rng.NextBounded(present.size())]];
      row = rows[rng.NextBounded(rows.size())];
    }
    // A fresh stream for the per-node feature subsets, decoupled from the
    // bootstrap draws above.
    uint64_t node_seed_base = rng.Next();
    trees_[t].Fit(bm, y, std::move(bootstrap), num_classes, options,
                  node_seed_base);
  });

  // Deterministic reduction: per-tree counters summed in tree order.
  for (const DecisionTree& tree : trees_) {
    fit_stats_.nodes += tree.stats().nodes;
    fit_stats_.histogram_builds += tree.stats().histogram_builds;
    fit_stats_.histogram_subtractions += tree.stats().histogram_subtractions;
  }
  return Status::OK();
}

std::vector<double> RandomForest::PredictProba(const std::vector<double>& point) const {
  std::vector<double> proba(num_classes_, 0.0);
  for (const auto& tree : trees_) {
    const std::vector<int>& counts = tree.Leaf(point);
    int total = 0;
    for (int c : counts) total += c;
    if (total == 0) continue;
    for (int k = 0; k < num_classes_; ++k) {
      proba[k] += static_cast<double>(counts[k]) / total;
    }
  }
  double norm = 0.0;
  for (double p : proba) norm += p;
  if (norm > 0.0) {
    for (double& p : proba) p /= norm;
  }
  return proba;
}

int RandomForest::Predict(const std::vector<double>& point) const {
  std::vector<double> proba = PredictProba(point);
  return static_cast<int>(std::max_element(proba.begin(), proba.end()) -
                          proba.begin());
}

}  // namespace semdrift
