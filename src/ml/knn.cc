#include "ml/knn.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace semdrift {

std::vector<std::vector<size_t>> KNearestNeighbors(const Matrix& x, int k) {
  size_t n = x.rows();
  size_t d = x.cols();
  // Rows are independent: each scans every other row on its own.
  return ParallelMap<std::vector<size_t>>(n, [&](size_t i) {
    std::vector<std::pair<double, size_t>> distances;
    distances.reserve(n - 1);
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      double dist_sq = 0.0;
      const double* a = x.Row(i);
      const double* b = x.Row(j);
      for (size_t f = 0; f < d; ++f) {
        double diff = a[f] - b[f];
        dist_sq += diff * diff;
      }
      distances.emplace_back(dist_sq, j);
    }
    size_t want = std::min(static_cast<size_t>(k), distances.size());
    std::partial_sort(distances.begin(), distances.begin() + want, distances.end());
    std::vector<size_t> nearest;
    nearest.reserve(want + 1);
    nearest.push_back(i);  // Self first.
    for (size_t t = 0; t < want; ++t) nearest.push_back(distances[t].second);
    return nearest;
  });
}

}  // namespace semdrift
