#include "ml/binned_matrix.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/thread_pool.h"

namespace semdrift {

Result<BinnedMatrix> BinnedMatrix::Build(const std::vector<std::vector<double>>& x,
                                         int max_bins) {
  if (max_bins < 2 || max_bins > kMaxBins) {
    return Status::InvalidArgument("binned matrix: max_bins " +
                                   std::to_string(max_bins) +
                                   " outside [2, 256]");
  }
  if (x.empty()) {
    return Status::InvalidArgument("binned matrix: empty training set");
  }
  const size_t n = x.size();
  const size_t d = x[0].size();
  if (d == 0) {
    return Status::InvalidArgument("binned matrix: zero-width feature vectors");
  }
  for (size_t r = 0; r < n; ++r) {
    if (x[r].size() != d) {
      return Status::InvalidArgument(
          "binned matrix: ragged row " + std::to_string(r) + " has " +
          std::to_string(x[r].size()) + " features, expected " +
          std::to_string(d));
    }
    for (size_t f = 0; f < d; ++f) {
      if (!std::isfinite(x[r][f])) {
        return Status::InvalidArgument("binned matrix: non-finite value at row " +
                                       std::to_string(r) + " feature " +
                                       std::to_string(f));
      }
    }
  }

  BinnedMatrix out;
  out.rows_ = n;
  out.bins_.resize(n * d);
  out.cuts_.resize(d);

  // Features are independent and write disjoint slices of bins_/cuts_, so
  // binning fans out over the pool; output is identical at any thread count.
  ParallelFor(d, [&](size_t f) {
    std::vector<double> sorted(n);
    for (size_t r = 0; r < n; ++r) sorted[r] = x[r][f];
    std::sort(sorted.begin(), sorted.end());

    size_t distinct = 1;
    for (size_t i = 1; i < n; ++i) distinct += sorted[i] != sorted[i - 1] ? 1 : 0;

    std::vector<double>& cuts = out.cuts_[f];
    if (distinct <= static_cast<size_t>(max_bins)) {
      // One bin per distinct value: the cuts are exactly the midpoints
      // between distinct values.
      cuts.reserve(distinct - 1);
      for (size_t i = 1; i < n; ++i) {
        if (sorted[i] != sorted[i - 1]) {
          cuts.push_back(0.5 * (sorted[i - 1] + sorted[i]));
        }
      }
    } else {
      // Quantile cut points: boundaries at equally spaced rank positions,
      // deduplicated so cuts stay strictly increasing on skewed data.
      cuts.reserve(max_bins - 1);
      for (int k = 1; k < max_bins; ++k) {
        size_t pos = static_cast<size_t>(k) * n / max_bins;
        if (pos == 0 || sorted[pos - 1] == sorted[pos]) continue;
        double cut = 0.5 * (sorted[pos - 1] + sorted[pos]);
        if (cuts.empty() || cut > cuts.back()) cuts.push_back(cut);
      }
    }

    // Bin assignment: first cut >= value (so "value <= cut[b]" <=> bin <= b,
    // matching the tree predicate "value <= threshold").
    uint8_t* column = out.bins_.data() + f * n;
    for (size_t r = 0; r < n; ++r) {
      column[r] = static_cast<uint8_t>(
          std::lower_bound(cuts.begin(), cuts.end(), x[r][f]) - cuts.begin());
    }
  });

  out.hist_offsets_.resize(d);
  size_t offset = 0;
  for (size_t f = 0; f < d; ++f) {
    out.hist_offsets_[f] = offset;
    offset += static_cast<size_t>(out.num_bins(f));
  }
  out.total_bins_ = offset;
  return out;
}

}  // namespace semdrift
