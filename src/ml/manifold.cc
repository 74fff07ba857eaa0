#include "ml/manifold.h"

#include <cassert>

#include "ml/knn.h"
#include "util/thread_pool.h"

namespace semdrift {

Matrix BuildManifoldRegularizer(const Matrix& x, const ManifoldOptions& options) {
  size_t n = x.rows();
  size_t r = x.cols();
  assert(n > 0 && r > 0);
  auto neighborhoods = KNearestNeighbors(x, options.k);

  // L_i per neighborhood, computed independently across the pool; the
  // scatter into M = sum_i S_i L_i S_i^T below stays serial in i order so
  // every entry of M sums its contributions in the same order at any
  // thread count.
  std::vector<Matrix> locals = ParallelMap<Matrix>(n, [&](size_t i) {
    const std::vector<size_t>& nb = neighborhoods[i];
    size_t m = nb.size();  // k + 1 (self first).
    // G = X~_i^T X~_i over the neighborhood columns.
    Matrix g(m, m);
    for (size_t a = 0; a < m; ++a) {
      for (size_t b = a; b < m; ++b) {
        double dot = 0.0;
        const double* ra = x.Row(nb[a]);
        const double* rb = x.Row(nb[b]);
        for (size_t f = 0; f < r; ++f) dot += ra[f] * rb[f];
        g(a, b) = dot;
        g(b, a) = dot;
      }
    }
    // HGH with H = I - (1/m) 1 1^T : double-center G.
    std::vector<double> row_mean(m, 0.0);
    double total_mean = 0.0;
    for (size_t a = 0; a < m; ++a) {
      double s = 0.0;
      for (size_t b = 0; b < m; ++b) s += g(a, b);
      row_mean[a] = s / static_cast<double>(m);
      total_mean += s;
    }
    total_mean /= static_cast<double>(m) * static_cast<double>(m);
    Matrix c(m, m);
    for (size_t a = 0; a < m; ++a) {
      for (size_t b = 0; b < m; ++b) {
        c(a, b) = g(a, b) - row_mean[a] - row_mean[b] + total_mean;
      }
    }
    c.AddDiagonal(options.local_lambda);
    // L_i = lambda (HGH + lambda I)^(-1) - (1/m) 1 1^T  (Woodbury form of
    // Eq. 14). Invert via Cholesky solve against the identity.
    Matrix li;
    bool ok = CholeskySolveMatrix(c, Matrix::Identity(m), &li);
    assert(ok && "HGH + lambda I must be positive definite");
    (void)ok;
    li.Scale(options.local_lambda);
    return li;
  });
  Matrix m_acc(n, n);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<size_t>& nb = neighborhoods[i];
    const Matrix& li = locals[i];
    double shift = 1.0 / static_cast<double>(nb.size());
    for (size_t a = 0; a < nb.size(); ++a) {
      for (size_t b = 0; b < nb.size(); ++b) {
        m_acc(nb[a], nb[b]) += li(a, b) - shift;
      }
    }
  }

  // A = X^T M X (samples are rows here; the paper's X~ has them as columns).
  Matrix mx = m_acc.Multiply(x);           // n x r
  Matrix a = x.Transpose().Multiply(mx);   // r x r
  // Symmetrize against floating-point drift; A is PSD by construction.
  Matrix at = a.Transpose();
  a.AddInPlace(at);
  a.Scale(0.5);
  return a;
}

}  // namespace semdrift
