// Timing harness for the parallel per-concept pipeline (BENCH_pipeline.json).
//
// Measures each parallelized stage two ways over one extracted KB:
//
//   serial   — --threads 1;
//   parallel — --threads N (default 4).
//
// Besides wall times it verifies the determinism contract: serial and
// parallel outputs must be bit-identical (exact ==, no tolerance); any
// mismatch exits 1. (Agreement with the implementations these stages
// replaced is pinned as golden digests in parallel_determinism_test.) The
// JSON report lands in --out (default BENCH_pipeline.json) and records the
// machine's core count next to the requested thread count.
//
//   bench_pipeline [--scale 0.3] [--threads 4] [--repeat 3]
//                  [--out BENCH_pipeline.json]

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dp/detector.h"
#include "dp/features.h"
#include "obs/metrics.h"
#include "dp/seed_labeling.h"
#include "eval/experiment.h"
#include "ml/random_forest.h"
#include "mutex/mutex_index.h"
#include "rank/scorers.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace semdrift;

namespace {

struct StageResult {
  std::string name;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool bit_identical = true;  // serial output == parallel output, exactly.
};

/// Best-of-`repeat` wall time of `body` in milliseconds.
template <typename Fn>
double TimeMs(int repeat, Fn&& body) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    Timer timer;
    body();
    double ms = timer.ElapsedMillis();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

bool SameTrainingData(const TrainingData& a, const TrainingData& b) {
  if (a.size() != b.size()) return false;
  for (size_t c = 0; c < a.size(); ++c) {
    if (a[c].concept_id.value != b[c].concept_id.value ||
        a[c].instances != b[c].instances || a[c].features != b[c].features ||
        a[c].seed_labels != b[c].seed_labels) {
      return false;
    }
  }
  return true;
}

void WriteJson(const std::string& path, double scale, int threads, int repeat,
               const std::vector<StageResult>& stages, const StageResult& combined,
               const std::vector<std::pair<int, double>>& forest_thread_sweep,
               const std::vector<std::pair<int, double>>& forest_bin_sweep) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  auto emit_stage = [&](const StageResult& s, const char* indent, bool last) {
    std::fprintf(f,
                 "%s{\"stage\": \"%s\", \"serial_ms\": %.3f, "
                 "\"parallel_ms\": %.3f, \"parallel_speedup\": %.3f, "
                 "\"bit_identical\": %s}%s\n",
                 indent, s.name.c_str(), s.serial_ms, s.parallel_ms,
                 s.parallel_ms > 0.0 ? s.serial_ms / s.parallel_ms : 0.0,
                 s.bit_identical ? "true" : "false", last ? "" : ",");
  };
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"scale\": %g,\n  \"threads\": %d,\n  \"nproc\": %u,\n"
               "  \"repeat\": %d,\n",
               scale, threads, std::thread::hardware_concurrency(), repeat);
  std::fprintf(f, "  \"stages\": [\n");
  for (size_t i = 0; i < stages.size(); ++i) {
    emit_stage(stages[i], "    ", i + 1 == stages.size());
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"forest_thread_sweep\": [");
  for (size_t i = 0; i < forest_thread_sweep.size(); ++i) {
    std::fprintf(f, "%s{\"threads\": %d, \"ms\": %.3f}", i == 0 ? "" : ", ",
                 forest_thread_sweep[i].first, forest_thread_sweep[i].second);
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"forest_bin_sweep\": [");
  for (size_t i = 0; i < forest_bin_sweep.size(); ++i) {
    std::fprintf(f, "%s{\"max_bins\": %d, \"ms\": %.3f}", i == 0 ? "" : ", ",
                 forest_bin_sweep[i].first, forest_bin_sweep[i].second);
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"detection_pipeline\":\n");
  emit_stage(combined, "    ", false);
  // The run's full metrics registry (pool jobs, warm/collect/train timings),
  // so one file captures both the macro timings and the hot-path telemetry.
  std::fprintf(f, "  \"metrics\": %s\n", semdrift::GlobalMetrics().ToJson().c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.3;
  int threads = 4;
  int repeat = 1;
  std::string out = "BENCH_pipeline.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scale") {
      if (!ParseDouble(value(), &scale)) std::exit(2);
    } else if (arg == "--threads") {
      threads = std::atoi(value().c_str());
    } else if (arg == "--repeat") {
      repeat = std::atoi(value().c_str());
    } else if (arg == "--out") {
      out = value();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      std::exit(2);
    }
  }
  if (repeat < 1) repeat = 1;

  std::printf("bench_pipeline: scale %g, threads %d, repeat %d\n", scale, threads,
              repeat);
  ExperimentConfig config = PaperScaleConfig(scale);
  auto experiment = Experiment::Build(config);
  KnowledgeBase kb = experiment->Extract();
  std::vector<ConceptId> scope;
  for (size_t ci = 0; ci < experiment->world().num_concepts(); ++ci) {
    scope.push_back(ConceptId(static_cast<uint32_t>(ci)));
  }
  std::printf("KB: %zu live pairs over %zu concepts\n", kb.num_live_pairs(),
              scope.size());

  std::vector<StageResult> stages;

  // --- Stage: mutex_build -------------------------------------------------
  StageResult mutex_stage;
  mutex_stage.name = "mutex_build";
  std::vector<double> serial_sims;
  mutex_stage.serial_ms = TimeMs(repeat, [&] {
    SetGlobalThreadCount(1);
    MutexIndex mutex(kb, scope.size());
    serial_sims = mutex.NonZeroSimilarities();
  });
  std::vector<double> parallel_sims;
  mutex_stage.parallel_ms = TimeMs(repeat, [&] {
    SetGlobalThreadCount(threads);
    MutexIndex mutex(kb, scope.size());
    parallel_sims = mutex.NonZeroSimilarities();
  });
  mutex_stage.bit_identical = serial_sims == parallel_sims;
  stages.push_back(mutex_stage);

  // --- Stage: score_warmup ------------------------------------------------
  StageResult warm_stage;
  warm_stage.name = "score_warmup";
  SetGlobalThreadCount(1);
  ScoreCache serial_scores(&kb, RankModel::kRandomWalk);
  warm_stage.serial_ms = TimeMs(1, [&] { serial_scores.Warm(scope); });
  SetGlobalThreadCount(threads);
  ScoreCache parallel_scores(&kb, RankModel::kRandomWalk);
  warm_stage.parallel_ms = TimeMs(1, [&] { parallel_scores.Warm(scope); });
  for (ConceptId c : scope) {
    if (serial_scores.Concept(c) != parallel_scores.Concept(c)) {
      warm_stage.bit_identical = false;
      break;
    }
  }
  stages.push_back(warm_stage);

  // --- Stage: collect_training_data ---------------------------------------
  StageResult collect_stage;
  collect_stage.name = "collect_training_data";
  SetGlobalThreadCount(1);
  MutexIndex mutex(kb, scope.size());
  SeedLabeler seeds(&kb, &mutex, [](const IsAPair&) { return false; });
  TrainingData serial_data;
  collect_stage.serial_ms = TimeMs(repeat, [&] {
    SetGlobalThreadCount(1);
    FeatureExtractor features(&kb, &mutex, &serial_scores);
    serial_data = CollectTrainingData(kb, &features, seeds, scope);
  });
  TrainingData parallel_data;
  collect_stage.parallel_ms = TimeMs(repeat, [&] {
    SetGlobalThreadCount(threads);
    FeatureExtractor features(&kb, &mutex, &parallel_scores);
    parallel_data = CollectTrainingData(kb, &features, seeds, scope);
  });
  collect_stage.bit_identical = SameTrainingData(serial_data, parallel_data);
  stages.push_back(collect_stage);

  // --- Stage: forest_fit ---------------------------------------------------
  StageResult forest_stage;
  forest_stage.name = "forest_fit";
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (const ConceptTrainingData& entry : serial_data) {
    for (const FeatureVector& f : entry.features) {
      x.push_back({f[0], f[1], f[2], f[3]});
      y.push_back(static_cast<int>(x.size()) % 3);
    }
  }
  RandomForestOptions forest_options;
  auto fit_or_die = [&](RandomForest* forest, const RandomForestOptions& options) {
    Status fit = forest->Fit(x, y, 3, options);
    if (!fit.ok()) {
      std::fprintf(stderr, "forest fit failed: %s\n", fit.ToString().c_str());
      std::exit(1);
    }
  };
  RandomForest serial_forest;
  forest_stage.serial_ms = TimeMs(repeat, [&] {
    SetGlobalThreadCount(1);
    fit_or_die(&serial_forest, forest_options);
  });
  RandomForest parallel_forest;
  forest_stage.parallel_ms = TimeMs(repeat, [&] {
    SetGlobalThreadCount(threads);
    fit_or_die(&parallel_forest, forest_options);
  });
  for (size_t i = 0; i < x.size() && i < 200; ++i) {
    if (serial_forest.PredictProba(x[i]) != parallel_forest.PredictProba(x[i])) {
      forest_stage.bit_identical = false;
      break;
    }
  }
  stages.push_back(forest_stage);

  // --- Forest sweeps: thread scaling and bin-count sensitivity -------------
  std::vector<std::pair<int, double>> forest_thread_sweep;
  for (int t : {1, 2, 4, 8}) {
    double ms = TimeMs(repeat, [&] {
      SetGlobalThreadCount(t);
      RandomForest forest;
      fit_or_die(&forest, forest_options);
    });
    forest_thread_sweep.emplace_back(t, ms);
    std::printf("forest_fit @ %d thread%s  %8.1f ms\n", t, t == 1 ? " " : "s",
                ms);
  }
  std::vector<std::pair<int, double>> forest_bin_sweep;
  for (int bins : {64, 128, 256}) {
    RandomForestOptions options = forest_options;
    options.max_bins = bins;
    double ms = TimeMs(repeat, [&] {
      SetGlobalThreadCount(threads);
      RandomForest forest;
      fit_or_die(&forest, options);
    });
    forest_bin_sweep.emplace_back(bins, ms);
    std::printf("forest_fit @ %3d bins    %8.1f ms\n", bins, ms);
  }

  // --- Combined detection pipeline: score warm-up + collect ---------------
  StageResult combined;
  combined.name = "detection_pipeline";
  combined.serial_ms = warm_stage.serial_ms + collect_stage.serial_ms;
  combined.parallel_ms = warm_stage.parallel_ms + collect_stage.parallel_ms;
  combined.bit_identical = warm_stage.bit_identical && collect_stage.bit_identical;

  auto print_stage = [](const StageResult& s) {
    std::printf("%-22s serial %8.1f ms  parallel %8.1f ms  %s\n", s.name.c_str(),
                s.serial_ms, s.parallel_ms,
                s.bit_identical ? "bit-identical" : "MISMATCH");
  };
  for (const StageResult& s : stages) print_stage(s);
  print_stage(combined);

  WriteJson(out, scale, threads, repeat, stages, combined, forest_thread_sweep,
            forest_bin_sweep);
  std::printf("-> %s\n", out.c_str());

  bool ok = combined.bit_identical;
  for (const StageResult& s : stages) ok = ok && s.bit_identical;
  if (!ok) {
    std::fprintf(stderr, "FAIL: parallel output is not bit-identical to serial\n");
    return 1;
  }
  return 0;
}
