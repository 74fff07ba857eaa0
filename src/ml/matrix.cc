#include "ml/matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "util/thread_pool.h"

namespace semdrift {

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  // i-k-j loop order: streaming access on both inputs.
  for (size_t i = 0; i < rows_; ++i) {
    const double* a_row = Row(i);
    double* out_row = out.Row(i);
    for (size_t k = 0; k < cols_; ++k) {
      double a = a_row[k];
      if (a == 0.0) continue;
      const double* b_row = other.Row(k);
      for (size_t j = 0; j < other.cols_; ++j) out_row[j] += a * b_row[j];
    }
  }
  return out;
}

Matrix Matrix::Add(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  out.AddInPlace(other);
  return out;
}

Matrix Matrix::Sub(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  out.AddInPlace(other, -1.0);
  return out;
}

void Matrix::AddInPlace(const Matrix& other, double scale) {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += scale * other.data_[i];
}

void Matrix::Scale(double factor) {
  for (double& v : data_) v *= factor;
}

void Matrix::AddDiagonal(double value) {
  assert(rows_ == cols_);
  for (size_t i = 0; i < rows_; ++i) (*this)(i, i) += value;
}

double Matrix::Trace() const {
  assert(rows_ == cols_);
  double t = 0.0;
  for (size_t i = 0; i < rows_; ++i) t += (*this)(i, i);
  return t;
}

double Matrix::FrobeniusNormSq() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  double m = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  }
  return m;
}

bool Matrix::AllFinite() const {
  for (double v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

namespace {

/// In-place Cholesky factorization: lower triangle of `a` becomes L with
/// A = L L^T. Returns false when not positive definite.
///
/// Each entry's dot product is one serial chain in k order; four rows' chains
/// run interleaved so the adds overlap instead of waiting on each other.
bool CholeskyFactor(Matrix* a) {
  size_t n = a->rows();
  for (size_t j = 0; j < n; ++j) {
    const double* aj = a->Row(j);
    double d = aj[j];
    for (size_t k = 0; k < j; ++k) d -= aj[k] * aj[k];
    if (d <= 0.0 || !std::isfinite(d)) return false;
    double ljj = std::sqrt(d);
    (*a)(j, j) = ljj;
    size_t i = j + 1;
    for (; i + 4 <= n; i += 4) {
      const double* a0 = a->Row(i);
      const double* a1 = a->Row(i + 1);
      const double* a2 = a->Row(i + 2);
      const double* a3 = a->Row(i + 3);
      double s0 = a0[j], s1 = a1[j], s2 = a2[j], s3 = a3[j];
      for (size_t k = 0; k < j; ++k) {
        s0 -= a0[k] * aj[k];
        s1 -= a1[k] * aj[k];
        s2 -= a2[k] * aj[k];
        s3 -= a3[k] * aj[k];
      }
      (*a)(i, j) = s0 / ljj;
      (*a)(i + 1, j) = s1 / ljj;
      (*a)(i + 2, j) = s2 / ljj;
      (*a)(i + 3, j) = s3 / ljj;
    }
    for (; i < n; ++i) {
      const double* ai = a->Row(i);
      double s = ai[j];
      for (size_t k = 0; k < j; ++k) s -= ai[k] * aj[k];
      (*a)(i, j) = s / ljj;
    }
  }
  return true;
}

/// Solves L L^T x = b given the factor produced by CholeskyFactor.
void CholeskyBackSolve(const Matrix& l, const double* b, double* x) {
  size_t n = l.rows();
  // Forward: L y = b.
  for (size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (size_t k = 0; k < i; ++k) s -= l(i, k) * x[k];
    x[i] = s / l(i, i);
  }
  // Backward: L^T x = y.
  for (size_t ii = n; ii-- > 0;) {
    double s = x[ii];
    for (size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
}

}  // namespace

bool CholeskySolve(const Matrix& a, const std::vector<double>& b,
                   std::vector<double>* x) {
  assert(a.rows() == a.cols() && a.rows() == b.size());
  Matrix l = a;
  if (!CholeskyFactor(&l)) return false;
  x->assign(b.size(), 0.0);
  CholeskyBackSolve(l, b.data(), x->data());
  return true;
}

bool CholeskySolveMatrix(const Matrix& a, const Matrix& b, Matrix* x) {
  assert(a.rows() == a.cols() && a.rows() == b.rows());
  Matrix l = a;
  if (!CholeskyFactor(&l)) return false;
  size_t n = b.rows();
  size_t m = b.cols();
  *x = Matrix(n, m);
  std::vector<double> column(n), solved(n);
  for (size_t j = 0; j < m; ++j) {
    for (size_t i = 0; i < n; ++i) column[i] = b(i, j);
    CholeskyBackSolve(l, column.data(), solved.data());
    for (size_t i = 0; i < n; ++i) (*x)(i, j) = solved[i];
  }
  return true;
}

bool LuSolve(const Matrix& a, const std::vector<double>& b, std::vector<double>* x) {
  assert(a.rows() == a.cols() && a.rows() == b.size());
  size_t n = a.rows();
  Matrix lu = a;
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t col = 0; col < n; ++col) {
    // Partial pivot.
    size_t pivot = col;
    double best = std::abs(lu(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      double v = std::abs(lu(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-14) return false;
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(lu(col, c), lu(pivot, c));
      std::swap(perm[col], perm[pivot]);
    }
    for (size_t r = col + 1; r < n; ++r) {
      double f = lu(r, col) / lu(col, col);
      lu(r, col) = f;
      for (size_t c = col + 1; c < n; ++c) lu(r, c) -= f * lu(col, c);
    }
  }
  // Solve with permuted b.
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) y[i] = b[perm[i]];
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < i; ++k) y[i] -= lu(i, k) * y[k];
  }
  x->assign(n, 0.0);
  for (size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (size_t k = ii + 1; k < n; ++k) s -= lu(ii, k) * (*x)[k];
    (*x)[ii] = s / lu(ii, ii);
  }
  return true;
}

namespace {

double Hypot(double a, double b) { return std::hypot(a, b); }

/// Element operations below which a loop runs inline rather than waking
/// the thread pool.
constexpr size_t kMinPooledWork = size_t{1} << 15;

/// Householder reduction of a symmetric matrix to tridiagonal form (only
/// the lower triangle is read). On exit: d = diagonal, e = subdiagonal
/// (e[0] unused), z = the accumulated orthogonal transform stored
/// *transposed*: row j of z is what becomes eigenvector j after QL, so the
/// QL rotations and the accumulation below walk contiguous rows.
void Tridiagonalize(Matrix* z, std::vector<double>* d, std::vector<double>* e) {
  size_t n = z->rows();
  d->assign(n, 0.0);
  e->assign(n, 0.0);
  if (n == 0) return;
  std::vector<double> p(n);
  for (size_t i = n - 1; i > 0; --i) {
    size_t l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (size_t k = 0; k <= l; ++k) scale += std::abs((*z)(i, k));
      if (scale == 0.0) {
        (*e)[i] = (*z)(i, l);
      } else {
        double* u = z->Row(i);
        for (size_t k = 0; k <= l; ++k) {
          u[k] /= scale;
          h += u[k] * u[k];
        }
        double f = u[l];
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        (*e)[i] = scale * g;
        h -= f * g;
        u[l] = f - g;
        // p = A u over the lower triangle. p[j] sums row j's part (k <= j)
        // first, then column j's part (k = j+1..l) in ascending k; sweeping
        // rows k in order adds those column terms in that same order while
        // reading memory row by row.
        for (size_t j = 0; j <= l; ++j) {
          const double* zj = z->Row(j);
          double s = 0.0;
          for (size_t k = 0; k <= j; ++k) s += zj[k] * u[k];
          p[j] = s;
        }
        for (size_t k = 1; k <= l; ++k) {
          const double* zk = z->Row(k);
          double uk = u[k];
          for (size_t j = 0; j < k; ++j) p[j] += zk[j] * uk;
        }
        f = 0.0;
        for (size_t j = 0; j <= l; ++j) {
          (*z)(j, i) = u[j] / h;
          (*e)[j] = p[j] / h;
          f += (*e)[j] * u[j];
        }
        double hh = f / (h + h);
        for (size_t j = 0; j <= l; ++j) {
          f = u[j];
          (*e)[j] = g = (*e)[j] - hh * f;
          double* zj = z->Row(j);
          for (size_t k = 0; k <= j; ++k) zj[k] -= f * (*e)[k] + g * u[k];
        }
      }
    } else {
      (*e)[i] = (*z)(i, l);
    }
    (*d)[i] = h;
  }
  (*d)[0] = 0.0;
  (*e)[0] = 0.0;
  // Accumulate the transform in transposed storage: t(j, k) holds z(k, j).
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) std::swap((*z)(i, j), (*z)(j, i));
  }
  Matrix& t = *z;
  std::vector<double> u(n);
  for (size_t i = 0; i < n; ++i) {
    size_t l = i;  // Rows [0, i) already transformed.
    if ((*d)[i] != 0.0) {
      const double* ti = t.Row(i);  // u / h, from the reduction above.
      for (size_t k = 0; k < l; ++k) u[k] = t(k, i);
      // Rows are independent: each takes its own dot with u (one serial sum
      // in k order), then its own update. Four rows' sums run interleaved.
      auto update_rows = [&](size_t j0, size_t j1) {
        size_t j = j0;
        for (; j + 4 <= j1; j += 4) {
          double* t0 = t.Row(j);
          double* t1 = t.Row(j + 1);
          double* t2 = t.Row(j + 2);
          double* t3 = t.Row(j + 3);
          double g0 = 0.0, g1 = 0.0, g2 = 0.0, g3 = 0.0;
          for (size_t k = 0; k < l; ++k) {
            g0 += u[k] * t0[k];
            g1 += u[k] * t1[k];
            g2 += u[k] * t2[k];
            g3 += u[k] * t3[k];
          }
          for (size_t k = 0; k < l; ++k) {
            t0[k] -= g0 * ti[k];
            t1[k] -= g1 * ti[k];
            t2[k] -= g2 * ti[k];
            t3[k] -= g3 * ti[k];
          }
        }
        for (; j < j1; ++j) {
          double* tj = t.Row(j);
          double g = 0.0;
          for (size_t k = 0; k < l; ++k) g += u[k] * tj[k];
          for (size_t k = 0; k < l; ++k) tj[k] -= g * ti[k];
        }
      };
      // Slices of 32 rows fan out over the pool once a step is big enough
      // to pay for it.
      constexpr size_t kRowsPerSlice = 32;
      size_t slices = (l + kRowsPerSlice - 1) / kRowsPerSlice;
      if (l * l < kMinPooledWork) {
        update_rows(0, l);
      } else {
        ParallelFor(slices, [&](size_t c) {
          update_rows(c * kRowsPerSlice, std::min(l, (c + 1) * kRowsPerSlice));
        });
      }
    }
    (*d)[i] = t(i, i);
    t(i, i) = 1.0;
    for (size_t j = 0; j < l; ++j) {
      t(i, j) = 0.0;
      t(j, i) = 0.0;
    }
  }
}

/// Implicit-shift QL on the tridiagonal (d, e), accumulating rotations
/// into the rows of the transposed transform `t`.
bool TridiagonalQl(std::vector<double>* d, std::vector<double>* e, Matrix* t) {
  size_t n = d->size();
  if (n == 0) return true;
  for (size_t i = 1; i < n; ++i) (*e)[i - 1] = (*e)[i];
  (*e)[n - 1] = 0.0;
  // The split test is relative to the two diagonal entries, which a cluster
  // of eigenvalues near zero (a centered kernel always has one) may never
  // meet: their off-diagonal stays at the rounding level of the whole
  // matrix. After kRelativeIterations on one eigenvalue the test also
  // accepts an off-diagonal below that level; a split that converges
  // without it never reaches this branch, so its result is unchanged.
  constexpr int kRelativeIterations = 50;
  constexpr int kMaxIterations = 100;
  double norm = 0.0;
  for (size_t i = 0; i < n; ++i) {
    norm = std::max(norm, std::abs((*d)[i]) + std::abs((*e)[i]));
  }
  double negligible = std::numeric_limits<double>::epsilon() * norm;
  for (size_t l = 0; l < n; ++l) {
    int iterations = 0;
    size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        double dd = std::abs((*d)[m]) + std::abs((*d)[m + 1]);
        if (std::abs((*e)[m]) <= 1e-15 * dd) break;
        if (iterations >= kRelativeIterations && std::abs((*e)[m]) <= negligible) break;
      }
      if (m != l) {
        if (iterations++ == kMaxIterations) return false;
        double g = ((*d)[l + 1] - (*d)[l]) / (2.0 * (*e)[l]);
        double r = Hypot(g, 1.0);
        double sign_r = g >= 0.0 ? std::abs(r) : -std::abs(r);
        g = (*d)[m] - (*d)[l] + (*e)[l] / (g + sign_r);
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        bool broke_early = false;
        for (size_t ii = m; ii-- > l;) {
          double f = s * (*e)[ii];
          double b = c * (*e)[ii];
          r = Hypot(f, g);
          (*e)[ii + 1] = r;
          if (r == 0.0) {
            (*d)[ii + 1] -= p;
            (*e)[m] = 0.0;
            broke_early = true;
            break;
          }
          s = f / r;
          c = g / r;
          g = (*d)[ii + 1] - p;
          r = ((*d)[ii] - g) * s + 2.0 * c * b;
          p = s * r;
          (*d)[ii + 1] = g + p;
          g = c * r - b;
          double* lo = t->Row(ii);
          double* hi = t->Row(ii + 1);
          for (size_t k = 0; k < n; ++k) {
            double v = hi[k];
            hi[k] = s * lo[k] + c * v;
            lo[k] = c * lo[k] - s * v;
          }
        }
        if (broke_early) continue;
        (*d)[l] -= p;
        (*e)[l] = g;
        (*e)[m] = 0.0;
      }
    } while (m != l);
  }
  return true;
}

}  // namespace

EigenResult SymmetricEigen(const Matrix& a) {
  assert(a.rows() == a.cols());
  EigenResult result;
  if (!a.AllFinite()) {
    result.status = Status::InvalidArgument("SymmetricEigen: non-finite input");
    return result;
  }
  Matrix t = a;
  std::vector<double> e;
  Tridiagonalize(&t, &result.values, &e);
  if (!TridiagonalQl(&result.values, &e, &t)) {
    result.status = Status::Internal("SymmetricEigen: QL iteration did not converge");
    result.values.clear();
    return result;
  }
  // Sort ascending by eigenvalue; eigenvector j is row order[j] of t.
  size_t n = result.values.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return result.values[x] < result.values[y];
  });
  std::vector<double> sorted_values(n);
  result.vectors = Matrix(n, n);
  for (size_t j = 0; j < n; ++j) {
    sorted_values[j] = result.values[order[j]];
    const double* v = t.Row(order[j]);
    for (size_t i = 0; i < n; ++i) result.vectors(i, j) = v[i];
  }
  result.values = std::move(sorted_values);
  return result;
}

}  // namespace semdrift
