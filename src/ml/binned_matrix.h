#ifndef SEMDRIFT_ML_BINNED_MATRIX_H_
#define SEMDRIFT_ML_BINNED_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace semdrift {

/// A training matrix quantized once into per-feature bins, stored
/// feature-major (column-major) as uint8_t. This is the LightGBM-style
/// preprocessing step for histogram split finding: after binning, a tree
/// node's split search is one linear pass over the node's rows per feature
/// (accumulating per-bin class counts) instead of a gather + sort + scan of
/// raw doubles per candidate feature per node.
///
/// Binning is quantile-style: each feature's cut points are computed from
/// the full dataset so that bins hold roughly equal row mass. A feature with
/// at most `max_bins` distinct values gets one bin per distinct value, so on
/// low-cardinality data the candidate thresholds are exactly the midpoints
/// between distinct values. Cut points double as the real-valued
/// thresholds written into tree nodes: the split "bin <= b goes left" is
/// exactly the predicate "value <= Threshold(f, b)", so trained trees
/// predict on raw feature vectors with no knowledge of the binning.
///
/// The matrix is immutable after Build and shared read-only by every tree
/// in a forest fit (and by concurrent frontier tasks inside one tree).
class BinnedMatrix {
 public:
  /// At most 256 bins so a bin index always fits a uint8_t.
  static constexpr int kMaxBins = 256;

  BinnedMatrix() = default;

  /// Quantizes row-major `x` (n rows, d features). Fails with
  /// InvalidArgument on an empty matrix, zero-width rows, ragged rows,
  /// non-finite values, or `max_bins` outside [2, 256]. Binning is
  /// parallelized over features (disjoint writes; deterministic at any
  /// thread count).
  static Result<BinnedMatrix> Build(const std::vector<std::vector<double>>& x,
                                    int max_bins);

  size_t num_rows() const { return rows_; }
  size_t num_features() const { return cuts_.size(); }

  /// Bins actually used by feature `f` (1 for a constant feature).
  int num_bins(size_t f) const { return static_cast<int>(cuts_[f].size()) + 1; }

  /// Sum of num_bins over all features — the stride basis for histograms.
  size_t total_bins() const { return total_bins_; }

  /// Offset of feature `f`'s bins inside a flattened histogram laid out as
  /// [feature][bin][class]: feature f's bin b lives at
  /// (hist_offset(f) + b) * num_classes + class.
  size_t hist_offset(size_t f) const { return hist_offsets_[f]; }

  /// Feature-major column: Column(f)[row] is the row's bin for feature f.
  const uint8_t* Column(size_t f) const { return bins_.data() + f * rows_; }

  uint8_t Bin(size_t f, size_t row) const { return bins_[f * rows_ + row]; }

  /// Real-valued threshold for the split "bin <= b goes left" on feature f.
  /// Precondition: 0 <= b < num_bins(f) - 1.
  double Threshold(size_t f, int b) const { return cuts_[f][b]; }

 private:
  size_t rows_ = 0;
  size_t total_bins_ = 0;
  std::vector<uint8_t> bins_;              // Feature-major: f * rows_ + row.
  std::vector<std::vector<double>> cuts_;  // Per feature, num_bins - 1 edges.
  std::vector<size_t> hist_offsets_;       // Prefix sums of num_bins.
};

}  // namespace semdrift

#endif  // SEMDRIFT_ML_BINNED_MATRIX_H_
