#ifndef SEMDRIFT_ML_KPCA_H_
#define SEMDRIFT_ML_KPCA_H_

#include <vector>

#include "ml/kernel.h"
#include "ml/matrix.h"

namespace semdrift {

/// Kernel PCA options (Sec. 3.3.1).
struct KpcaOptions {
  KernelType kernel = KernelType::kRbf;
  /// RBF width; <= 0 selects 1 / (d * variance) automatically (after
  /// standardization that is 1/d).
  double rbf_gamma = -1.0;
  /// Keep at most this many components; 0 keeps every component whose
  /// eigenvalue clears the floor ("full rank kernel PCA").
  int max_components = 0;
  /// Eigenvalues below floor * max_eigenvalue are treated as zero.
  double eigen_floor = 1e-9;
  /// Standardize input dimensions to zero mean / unit variance before the
  /// kernel — prevents one dominant raw feature (the paper's f2 concern,
  /// Sec. 3.2.3) from flattening the kernel geometry.
  bool standardize = true;
};

/// Full-rank kernel PCA with the out-of-sample projection of Sec. 3.3.1:
/// fit on training rows, then Transform() maps arbitrary points x_j into the
/// r-dimensional representation x~_j via x~^p_j = sum_i alpha^p_i k~(x_i, x_j).
class KernelPca {
 public:
  KernelPca() = default;

  /// Fits on the rows of `x` (n samples by d features). Returns false when
  /// the input is degenerate (fewer than 2 rows, a non-finite entry, no
  /// positive eigenvalue) or the eigensolve fails.
  bool Fit(const Matrix& x, const KpcaOptions& options);

  /// Projects one d-dimensional point; returns an r-dimensional vector.
  std::vector<double> Transform(const std::vector<double>& x) const;

  /// Projects every row of `x`, producing an (x.rows() by r) matrix. Rows
  /// fan out over the thread pool; each is exactly Transform(row).
  Matrix TransformMatrix(const Matrix& x) const;

  size_t num_components() const { return num_components_; }
  bool fitted() const { return num_components_ > 0; }

  /// Eigenvalues retained (descending).
  const std::vector<double>& eigenvalues() const { return eigenvalues_; }

  /// Dual coefficient of training row `i` in component `p` (scaled 1/sqrt(l)).
  double alpha(size_t i, size_t p) const { return alphas_(p, i); }

 private:
  /// Applies standardization to a copy of a raw point.
  std::vector<double> Standardize(const std::vector<double>& x) const;

  KpcaOptions options_;
  double gamma_ = 1.0;
  size_t num_components_ = 0;
  Matrix train_;                    // Standardized training rows.
  Matrix alphas_;                   // r x n dual coefficients (scaled 1/sqrt(l)),
                                    // one contiguous row per component.
  std::vector<double> eigenvalues_; // Retained eigenvalues, descending.
  std::vector<double> k_row_mean_;  // Row means of the training kernel.
  double k_total_mean_ = 0.0;
  std::vector<double> feature_mean_;
  std::vector<double> feature_std_;
};

}  // namespace semdrift

#endif  // SEMDRIFT_ML_KPCA_H_
