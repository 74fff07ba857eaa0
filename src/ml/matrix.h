#ifndef SEMDRIFT_ML_MATRIX_H_
#define SEMDRIFT_ML_MATRIX_H_

#include <cstddef>
#include <vector>

#include "util/status.h"

namespace semdrift {

/// Dense row-major matrix of doubles. Sized for this library's needs
/// (kernel matrices up to a few thousand rows, regularized solves in the
/// KPCA feature space): straightforward O(n^3) algorithms, no BLAS.
class Matrix {
 public:
  Matrix() = default;

  /// Zero-initialized rows x cols matrix.
  Matrix(size_t rows, size_t cols) : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) = default;
  Matrix& operator=(Matrix&&) = default;

  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Raw row pointer (row-major layout).
  double* Row(size_t r) { return data_.data() + r * cols_; }
  const double* Row(size_t r) const { return data_.data() + r * cols_; }

  Matrix Transpose() const;

  /// this * other. Precondition: cols() == other.rows().
  Matrix Multiply(const Matrix& other) const;

  /// this + other (elementwise). Preconditions: equal shape.
  Matrix Add(const Matrix& other) const;

  /// this - other (elementwise).
  Matrix Sub(const Matrix& other) const;

  /// In-place this += scale * other.
  void AddInPlace(const Matrix& other, double scale = 1.0);

  /// In-place scalar multiply.
  void Scale(double factor);

  /// Adds `value` to every diagonal element (ridge shift).
  void AddDiagonal(double value);

  /// Trace (sum of diagonal). Precondition: square.
  double Trace() const;

  /// Frobenius norm squared.
  double FrobeniusNormSq() const;

  /// Max |a_ij - b_ij|; utility for tests.
  double MaxAbsDiff(const Matrix& other) const;

  /// True when every entry is finite (no NaN / +-Inf). Fit routines reject
  /// non-finite input up front: one poisoned entry would silently spread
  /// through a whole kernel matrix or forest.
  bool AllFinite() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves A x = b for symmetric positive definite A via Cholesky.
/// Returns false when A is not positive definite (no solution written).
bool CholeskySolve(const Matrix& a, const std::vector<double>& b,
                   std::vector<double>* x);

/// Solves A X = B (B has multiple right-hand columns) via Cholesky.
bool CholeskySolveMatrix(const Matrix& a, const Matrix& b, Matrix* x);

/// Solves A x = b for general square A via LU with partial pivoting.
/// Returns false on (numerical) singularity.
bool LuSolve(const Matrix& a, const std::vector<double>& b, std::vector<double>* x);

/// Result of a symmetric eigendecomposition: A = V diag(values) V^T, with
/// eigenvalues ascending and eigenvectors in the *columns* of `vectors`.
/// When `status` is not OK (non-finite input, or the QL iteration did not
/// converge) `values` and `vectors` are empty.
struct EigenResult {
  std::vector<double> values;
  Matrix vectors;
  Status status;
};

/// Eigendecomposition of a symmetric matrix via Householder
/// tridiagonalization followed by implicit-shift QL. O(n^3); accurate for
/// the kernel matrices used here. Precondition: `a` square and symmetric
/// (the reduction reads its lower triangle).
EigenResult SymmetricEigen(const Matrix& a);

}  // namespace semdrift

#endif  // SEMDRIFT_ML_MATRIX_H_
