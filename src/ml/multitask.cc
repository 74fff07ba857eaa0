#include "ml/multitask.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "util/thread_pool.h"

namespace semdrift {

namespace {

/// Xl^T Xl (r x r) for a task.
Matrix GramOfLabeled(const LearningTask& task) {
  return task.xl.Transpose().Multiply(task.xl);
}

/// Xl^T Y (r x outputs) for a task.
Matrix CrossOfLabeled(const LearningTask& task) {
  return task.xl.Transpose().Multiply(task.y);
}

/// ||Xl Wc - Y||_F^2.
double FitLoss(const LearningTask& task, const Matrix& wc) {
  Matrix pred = task.xl.Multiply(wc);
  return pred.Sub(task.y).FrobeniusNormSq();
}

/// Tr(Wc^T A Wc).
double ManifoldTerm(const Matrix& a, const Matrix& wc) {
  return wc.Transpose().Multiply(a.Multiply(wc)).Trace();
}

/// ||w_i|| for every shared-structure column i: w_i stacks row i of every
/// task's Wc (W = [W1; ...; Wt]^T in the paper, w_i its i-th column).
std::vector<double> SharedColumnNorms(const std::vector<Matrix>& w) {
  size_t r = w.empty() ? 0 : w[0].rows();
  std::vector<double> norms(r, 0.0);
  for (const Matrix& wc : w) {
    for (size_t i = 0; i < r; ++i) {
      for (size_t o = 0; o < wc.cols(); ++o) norms[i] += wc(i, o) * wc(i, o);
    }
  }
  for (double& v : norms) v = std::sqrt(v);
  return norms;
}

}  // namespace

Matrix TrainSemiSupervised(const LearningTask& task, const Matrix& a,
                           const MultiTaskOptions& options) {
  assert(task.xl.cols() == a.rows());
  Matrix lhs = GramOfLabeled(task);
  lhs.AddInPlace(a, options.lambda);
  lhs.AddDiagonal(options.lambda * options.beta);
  Matrix rhs = CrossOfLabeled(task);
  Matrix wc;
  if (!CholeskySolveMatrix(lhs, rhs, &wc)) return Matrix();
  return wc;
}

Matrix TrainRidge(const LearningTask& task, const MultiTaskOptions& options) {
  Matrix lhs = GramOfLabeled(task);
  lhs.AddDiagonal(std::max(options.lambda * options.beta, 1e-8));
  Matrix rhs = CrossOfLabeled(task);
  Matrix wc;
  if (!CholeskySolveMatrix(lhs, rhs, &wc)) return Matrix();
  return wc;
}

double MultiTaskObjective(const std::vector<LearningTask>& tasks, const Matrix& a,
                          const std::vector<Matrix>& w,
                          const MultiTaskOptions& options) {
  // Per-task terms fan out; the sums below add them in task order, exactly
  // as a serial loop would.
  struct Terms {
    double fit = 0.0;
    double manifold = 0.0;
    double frobenius = 0.0;
  };
  std::vector<Terms> terms = ParallelMap<Terms>(tasks.size(), [&](size_t c) {
    return Terms{FitLoss(tasks[c], w[c]), ManifoldTerm(a, w[c]),
                 w[c].FrobeniusNormSq()};
  });
  double objective = 0.0;
  double frobenius = 0.0;
  for (const Terms& t : terms) {
    objective += t.fit;
    objective += options.lambda * t.manifold;
    frobenius += t.frobenius;
  }
  double l21 = 0.0;
  for (double norm : SharedColumnNorms(w)) l21 += norm;
  objective += options.lambda * options.beta * l21;
  objective += options.lambda * options.gamma * frobenius;
  return objective;
}

MultiTaskResult TrainMultiTask(const std::vector<LearningTask>& tasks,
                               const Matrix& a, const MultiTaskOptions& options) {
  assert(!tasks.empty());
  size_t r = a.rows();
  size_t outputs = tasks[0].y.cols();

  MultiTaskResult result;
  Rng rng(options.seed);
  result.w.reserve(tasks.size());
  for (const LearningTask& task : tasks) {
    assert(task.xl.cols() == r && task.y.cols() == outputs);
    (void)task;
    Matrix wc(r, outputs);
    for (size_t i = 0; i < r; ++i) {
      for (size_t o = 0; o < outputs; ++o) wc(i, o) = 0.01 * rng.NextGaussian();
    }
    result.w.push_back(std::move(wc));
  }

  // Per-task constants: Xl^T Xl + lambda A (the iteration-invariant part of
  // the Eq. 20 system) and Xl^T Y. The r x r systems are allocated here, on
  // the calling thread, and the pool copies into them rather than moving a
  // worker's buffer in: they outlive the loop, and spreading them over the
  // workers' allocator arenas would raise peak RSS.
  std::vector<Matrix> bases(tasks.size(), Matrix(r, r));
  std::vector<Matrix> crosses(tasks.size(), Matrix(r, outputs));
  ParallelFor(tasks.size(), [&](size_t c) {
    Matrix base = GramOfLabeled(tasks[c]);
    base.AddInPlace(a, options.lambda);
    bases[c] = base;
    crosses[c] = CrossOfLabeled(tasks[c]);
  });

  double previous = MultiTaskObjective(tasks, a, result.w, options);
  result.objective_trace.push_back(previous);
  std::vector<char> solved(tasks.size());
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // D_ii = 1 / (2 ||w_i||), shared across tasks.
    std::vector<double> norms = SharedColumnNorms(result.w);
    // Wc = (Xl Xl^T + lambda A + lambda beta D + lambda gamma I)^(-1) Xl Yc
    // (Eq. 20; our orientation uses Xl^T Xl etc., rows = samples). The
    // per-task systems only share the norms above, so they solve in
    // parallel.
    ParallelFor(tasks.size(), [&](size_t c) {
      Matrix lhs = bases[c];
      for (size_t i = 0; i < r; ++i) {
        double d_ii = 1.0 / (2.0 * std::max(norms[i], options.norm_floor));
        lhs(i, i) += options.lambda * options.beta * d_ii;
      }
      lhs.AddDiagonal(options.lambda * options.gamma);
      Matrix wc;
      solved[c] = CholeskySolveMatrix(lhs, crosses[c], &wc);
      if (solved[c]) result.w[c] = std::move(wc);
    });
    for (size_t c = 0; c < tasks.size(); ++c) {
      if (solved[c]) continue;
      result.status = Status::Internal("Eq. 20 system of task " + std::to_string(c) +
                                       " is not positive definite (iteration " +
                                       std::to_string(iter) + ")");
      return result;
    }
    double objective = MultiTaskObjective(tasks, a, result.w, options);
    result.objective_trace.push_back(objective);
    if (previous - objective < options.tolerance * std::abs(previous)) break;
    previous = objective;
  }
  return result;
}

int PredictClass(const Matrix& wc, const std::vector<double>& x) {
  assert(x.size() == wc.rows());
  int best = 0;
  double best_score = -1e300;
  for (size_t o = 0; o < wc.cols(); ++o) {
    double score = 0.0;
    for (size_t i = 0; i < wc.rows(); ++i) score += wc(i, o) * x[i];
    if (score > best_score) {
      best_score = score;
      best = static_cast<int>(o);
    }
  }
  return best;
}

}  // namespace semdrift
