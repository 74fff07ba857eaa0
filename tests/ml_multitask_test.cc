#include <gtest/gtest.h>

#include <cmath>

#include "ml/manifold.h"
#include "ml/multitask.h"
#include "util/rng.h"

namespace semdrift {
namespace {

/// A linearly separable 2-class task in r dimensions: class = sign of the
/// first coordinate.
LearningTask MakeSeparableTask(size_t m, size_t r, Rng* rng) {
  LearningTask task;
  task.xl = Matrix(m, r);
  task.y = Matrix(m, 2);
  for (size_t i = 0; i < m; ++i) {
    double sign = i % 2 == 0 ? 1.0 : -1.0;
    task.xl(i, 0) = sign * (1.0 + 0.1 * rng->NextDouble());
    for (size_t j = 1; j < r; ++j) task.xl(i, j) = 0.05 * rng->NextGaussian();
    task.y(i, sign > 0 ? 0 : 1) = 1.0;
  }
  return task;
}

TEST(RidgeTest, FitsSeparableTask) {
  Rng rng(3);
  LearningTask task = MakeSeparableTask(40, 3, &rng);
  MultiTaskOptions options;
  Matrix w = TrainRidge(task, options);
  ASSERT_EQ(w.rows(), 3u);
  ASSERT_EQ(w.cols(), 2u);
  int correct = 0;
  for (size_t i = 0; i < task.xl.rows(); ++i) {
    std::vector<double> x(3);
    for (size_t j = 0; j < 3; ++j) x[j] = task.xl(i, j);
    int predicted = PredictClass(w, x);
    int actual = task.y(i, 0) > 0.5 ? 0 : 1;
    correct += predicted == actual;
  }
  EXPECT_EQ(correct, 40);
}

TEST(RidgeTest, MatchesManualNormalEquations) {
  // Tiny task solved by hand: one feature, two samples.
  LearningTask task;
  task.xl = Matrix(2, 1);
  task.xl(0, 0) = 1.0;
  task.xl(1, 0) = 2.0;
  task.y = Matrix(2, 1);
  task.y(0, 0) = 1.0;
  task.y(1, 0) = 2.0;
  MultiTaskOptions options;
  options.lambda = 1.0;
  options.beta = 1.0;
  Matrix w = TrainRidge(task, options);
  // w = (X^T X + 1)^{-1} X^T y = (5 + 1)^{-1} * 5 = 5/6.
  EXPECT_NEAR(w(0, 0), 5.0 / 6.0, 1e-12);
}

TEST(SemiSupervisedTest, ReducesToRidgeWithZeroRegularizer) {
  Rng rng(5);
  LearningTask task = MakeSeparableTask(30, 4, &rng);
  Matrix zero(4, 4);
  MultiTaskOptions options;
  Matrix w_semi = TrainSemiSupervised(task, zero, options);
  Matrix w_ridge = TrainRidge(task, options);
  EXPECT_LT(w_semi.MaxAbsDiff(w_ridge), 1e-10);
}

TEST(SemiSupervisedTest, ManifoldShrinksAlongPenalizedDirection) {
  Rng rng(7);
  LearningTask task = MakeSeparableTask(30, 2, &rng);
  // Penalize the informative dimension 0 heavily.
  Matrix a(2, 2);
  a(0, 0) = 100.0;
  MultiTaskOptions options;
  options.lambda = 1.0;
  Matrix w_plain = TrainSemiSupervised(task, Matrix(2, 2), options);
  Matrix w_penalized = TrainSemiSupervised(task, a, options);
  EXPECT_LT(std::abs(w_penalized(0, 0)), std::abs(w_plain(0, 0)));
}

TEST(MultiTaskTest, ObjectiveMonotoneNonIncreasing) {
  // Theorem 1: the Eq. 18 objective decreases monotonically.
  Rng rng(11);
  std::vector<LearningTask> tasks;
  for (int t = 0; t < 4; ++t) tasks.push_back(MakeSeparableTask(24, 5, &rng));
  Matrix x_pool(40, 5);
  for (size_t i = 0; i < 40; ++i)
    for (size_t j = 0; j < 5; ++j) x_pool(i, j) = rng.NextGaussian();
  ManifoldOptions manifold_options;
  manifold_options.k = 4;
  Matrix a = BuildManifoldRegularizer(x_pool, manifold_options);
  MultiTaskOptions options;
  options.max_iterations = 25;
  MultiTaskResult result = TrainMultiTask(tasks, a, options);
  ASSERT_GE(result.objective_trace.size(), 2u);
  for (size_t i = 1; i < result.objective_trace.size(); ++i) {
    EXPECT_LE(result.objective_trace[i], result.objective_trace[i - 1] + 1e-9)
        << "iteration " << i;
  }
}

TEST(MultiTaskTest, ConvergesAndClassifies) {
  Rng rng(13);
  std::vector<LearningTask> tasks;
  for (int t = 0; t < 3; ++t) tasks.push_back(MakeSeparableTask(30, 4, &rng));
  Matrix a(4, 4);  // No manifold: isolate the l2,1 structure.
  MultiTaskOptions options;
  MultiTaskResult result = TrainMultiTask(tasks, a, options);
  ASSERT_EQ(result.w.size(), 3u);
  for (size_t t = 0; t < tasks.size(); ++t) {
    int correct = 0;
    for (size_t i = 0; i < tasks[t].xl.rows(); ++i) {
      std::vector<double> x(4);
      for (size_t j = 0; j < 4; ++j) x[j] = tasks[t].xl(i, j);
      int predicted = PredictClass(result.w[t], x);
      int actual = tasks[t].y(i, 0) > 0.5 ? 0 : 1;
      correct += predicted == actual;
    }
    EXPECT_GT(correct, 27) << "task " << t;
  }
}

TEST(MultiTaskTest, StrongerL21ShrinksSharedColumnNorms) {
  // Increasing the l2,1 weight must shrink the joint column-norm total
  // (the shared-structure sparsity the paper's Eq. 18 encodes).
  Rng rng(17);
  std::vector<LearningTask> tasks;
  for (int t = 0; t < 5; ++t) tasks.push_back(MakeSeparableTask(20, 3, &rng));
  Matrix a(3, 3);
  auto l21_total = [](const std::vector<Matrix>& w) {
    double total = 0.0;
    size_t r = w[0].rows();
    for (size_t i = 0; i < r; ++i) {
      double norm_sq = 0.0;
      for (const Matrix& wc : w) {
        for (size_t o = 0; o < wc.cols(); ++o) norm_sq += wc(i, o) * wc(i, o);
      }
      total += std::sqrt(norm_sq);
    }
    return total;
  };
  MultiTaskOptions weak;
  weak.beta = 0.01;
  MultiTaskOptions strong;
  strong.beta = 10.0;
  double weak_norm = l21_total(TrainMultiTask(tasks, a, weak).w);
  double strong_norm = l21_total(TrainMultiTask(tasks, a, strong).w);
  EXPECT_LT(strong_norm, weak_norm);
}

TEST(MultiTaskTest, ObjectiveValueMatchesHelper) {
  Rng rng(19);
  std::vector<LearningTask> tasks{MakeSeparableTask(10, 2, &rng)};
  Matrix a(2, 2);
  MultiTaskOptions options;
  options.max_iterations = 5;
  MultiTaskResult result = TrainMultiTask(tasks, a, options);
  double recomputed = MultiTaskObjective(tasks, a, result.w, options);
  EXPECT_NEAR(recomputed, result.objective_trace.back(), 1e-9);
}

TEST(MultiTaskTest, NonFiniteRegularizerReportsStatus) {
  // A NaN in the manifold regularizer poisons every Eq. 20 system; the
  // failure comes back as a status rather than as NaN weights.
  Rng rng(23);
  std::vector<LearningTask> tasks;
  for (int t = 0; t < 3; ++t) tasks.push_back(MakeSeparableTask(12, 3, &rng));
  Matrix a(3, 3);
  a(1, 1) = std::nan("");
  MultiTaskOptions options;
  MultiTaskResult result = TrainMultiTask(tasks, a, options);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), Status::Code::kInternal);
  // The Eq. 15 single-task solve reports the same failure as an empty W.
  EXPECT_EQ(TrainSemiSupervised(tasks[0], a, options).rows(), 0u);
  a(1, 1) = 0.0;
  EXPECT_TRUE(TrainMultiTask(tasks, a, options).status.ok());
}

TEST(PredictClassTest, PicksArgmaxColumn) {
  Matrix w(2, 3);
  w(0, 0) = 1.0;   // Class 0 score = x0.
  w(1, 1) = 1.0;   // Class 1 score = x1.
  w(0, 2) = -1.0;  // Class 2 score = -x0.
  EXPECT_EQ(PredictClass(w, {2.0, 1.0}), 0);
  EXPECT_EQ(PredictClass(w, {0.5, 3.0}), 1);
  EXPECT_EQ(PredictClass(w, {-5.0, -4.0}), 2);
}

}  // namespace
}  // namespace semdrift
