#ifndef SEMDRIFT_ML_MANIFOLD_H_
#define SEMDRIFT_ML_MANIFOLD_H_

#include "ml/matrix.h"

namespace semdrift {

/// Parameters of the local-learning manifold regularizer (Eq. 9-14).
struct ManifoldOptions {
  /// Neighborhood size k of N_k(x~_i).
  int k = 7;
  /// Ridge term of the local predictors (the lambda inside Eq. 12/14).
  double local_lambda = 1.0;
};

/// Builds the semi-supervised regularizer
///     A = X~ (sum_i S_i L_i S_i^T) X~^T              (Eq. 17)
/// with
///     L_i = H - H X~_i^T (X~_i H X~_i^T + lambda I)^(-1) X~_i H   (Eq. 14)
/// over *all* rows of `x` (labeled and unlabeled — this is where unlabeled
/// data enters the detector). `x` holds samples as rows (n x r); the result
/// is r x r and positive semi-definite (Theorem 1 / Lemma 1).
///
/// Internally L_i is evaluated in its (k+1)-dimensional Woodbury form
///     L_i = lambda (H G_i H + lambda I)^(-1) - (1/(k+1)) 1 1^T,
/// where G_i = X~_i^T X~_i, so cost is O(n (k^3 + k^2 r) + n^2 r) instead of
/// O(n r^3).
///
/// Returns an empty Matrix when `x` is empty or some H G_i H + lambda I is
/// not positive definite (any lambda < 0 makes it so: H G_i H has the
/// constant vector in its null space).
Matrix BuildManifoldRegularizer(const Matrix& x, const ManifoldOptions& options);

}  // namespace semdrift

#endif  // SEMDRIFT_ML_MANIFOLD_H_
