#include "ml/kpca.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/thread_pool.h"

namespace semdrift {

bool KernelPca::Fit(const Matrix& x, const KpcaOptions& options) {
  options_ = options;
  size_t n = x.rows();
  size_t d = x.cols();
  if (n < 2 || d == 0) return false;
  // A single NaN would propagate through standardization into every kernel
  // entry; reject up front so the caller's fallback path can take over.
  if (!x.AllFinite()) return false;

  // Standardization statistics.
  feature_mean_.assign(d, 0.0);
  feature_std_.assign(d, 1.0);
  if (options_.standardize) {
    for (size_t j = 0; j < d; ++j) {
      double mean = 0.0;
      for (size_t i = 0; i < n; ++i) mean += x(i, j);
      mean /= static_cast<double>(n);
      double var = 0.0;
      for (size_t i = 0; i < n; ++i) {
        double diff = x(i, j) - mean;
        var += diff * diff;
      }
      var /= static_cast<double>(n);
      feature_mean_[j] = mean;
      feature_std_[j] = var > 1e-12 ? std::sqrt(var) : 1.0;
    }
  }
  train_ = Matrix(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      train_(i, j) = (x(i, j) - feature_mean_[j]) / feature_std_[j];
    }
  }

  gamma_ = options_.rbf_gamma > 0.0 ? options_.rbf_gamma
                                    : 1.0 / static_cast<double>(d);

  // Kernel matrix and double-centering: K~ = K - 1K - K1 + 1K1.
  Matrix k = KernelMatrix(options_.kernel, gamma_, train_);
  k_row_mean_.assign(n, 0.0);
  k_total_mean_ = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (size_t j = 0; j < n; ++j) s += k(i, j);
    k_row_mean_[i] = s / static_cast<double>(n);
    k_total_mean_ += s;
  }
  k_total_mean_ /= static_cast<double>(n) * static_cast<double>(n);
  Matrix centered(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      centered(i, j) = k(i, j) - k_row_mean_[i] - k_row_mean_[j] + k_total_mean_;
    }
  }

  EigenResult eigen = SymmetricEigen(centered);  // Ascending.
  if (!eigen.status.ok()) return false;
  double max_eigen = eigen.values.empty() ? 0.0 : eigen.values.back();
  if (max_eigen <= 0.0) return false;
  double floor = options_.eigen_floor * max_eigen;

  // Collect components descending, normalizing alpha to 1/sqrt(lambda) so
  // projections are the coordinates w.r.t. unit-norm eigenvectors in H.
  std::vector<size_t> keep;
  for (size_t idx = n; idx-- > 0;) {
    if (eigen.values[idx] <= floor) break;
    keep.push_back(idx);
    if (options_.max_components > 0 &&
        keep.size() == static_cast<size_t>(options_.max_components)) {
      break;
    }
  }
  num_components_ = keep.size();
  if (num_components_ == 0) return false;
  alphas_ = Matrix(num_components_, n);
  eigenvalues_.clear();
  for (size_t p = 0; p < num_components_; ++p) {
    size_t idx = keep[p];
    double lambda = eigen.values[idx];
    eigenvalues_.push_back(lambda);
    double scale = 1.0 / std::sqrt(lambda);
    double* alpha = alphas_.Row(p);
    for (size_t i = 0; i < n; ++i) alpha[i] = eigen.vectors(i, idx) * scale;
  }
  return true;
}

std::vector<double> KernelPca::Standardize(const std::vector<double>& x) const {
  std::vector<double> out(x.size());
  for (size_t j = 0; j < x.size(); ++j) {
    out[j] = (x[j] - feature_mean_[j]) / feature_std_[j];
  }
  return out;
}

std::vector<double> KernelPca::Transform(const std::vector<double>& x) const {
  assert(fitted());
  assert(x.size() == train_.cols());
  std::vector<double> q = Standardize(x);
  std::vector<double> k;
  KernelVector(options_.kernel, gamma_, train_, q.data(), &k);
  size_t n = train_.rows();
  // Center against the training distribution.
  double k_mean = 0.0;
  for (double v : k) k_mean += v;
  k_mean /= static_cast<double>(n);
  std::vector<double> centered(n);
  for (size_t i = 0; i < n; ++i) {
    centered[i] = k[i] - k_row_mean_[i] - k_mean + k_total_mean_;
  }
  // x~^p = sum_i alpha^p_i k~_i, summed in i order for every component.
  // The sums are independent serial chains, so four components advance
  // together (one load of centered[i] feeds four adds in flight).
  std::vector<double> out(num_components_, 0.0);
  size_t p = 0;
  for (; p + 4 <= num_components_; p += 4) {
    const double* a0 = alphas_.Row(p);
    const double* a1 = alphas_.Row(p + 1);
    const double* a2 = alphas_.Row(p + 2);
    const double* a3 = alphas_.Row(p + 3);
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double c = centered[i];
      s0 += a0[i] * c;
      s1 += a1[i] * c;
      s2 += a2[i] * c;
      s3 += a3[i] * c;
    }
    out[p] = s0;
    out[p + 1] = s1;
    out[p + 2] = s2;
    out[p + 3] = s3;
  }
  for (; p < num_components_; ++p) {
    const double* a = alphas_.Row(p);
    double s = 0.0;
    for (size_t i = 0; i < n; ++i) s += a[i] * centered[i];
    out[p] = s;
  }
  return out;
}

Matrix KernelPca::TransformMatrix(const Matrix& x) const {
  Matrix out(x.rows(), num_components_);
  ParallelFor(x.rows(), [&](size_t i) {
    const double* row = x.Row(i);
    std::vector<double> projected = Transform(std::vector<double>(row, row + x.cols()));
    std::copy(projected.begin(), projected.end(), out.Row(i));
  });
  return out;
}

}  // namespace semdrift
