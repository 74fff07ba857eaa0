#include "dp/detector.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace semdrift {

namespace {

/// Worker-side gather instrumentation shared by the plain and supervised
/// collectors (order-free atomics; safe from pool workers).
struct CollectMetrics {
  MetricsRegistry::Counter concepts;
  MetricsRegistry::Counter instances;
  MetricsRegistry::Histogram concept_ns;
};

CollectMetrics& GetCollectMetrics() {
  static CollectMetrics metrics{
      GlobalMetrics().RegisterCounter("collect.concepts"),
      GlobalMetrics().RegisterCounter("collect.instances"),
      GlobalMetrics().RegisterHistogram("collect.concept_ns", LatencyBucketsNs())};
  return metrics;
}

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
}

}  // namespace

TrainingData CollectTrainingData(const KnowledgeBase& kb, FeatureExtractor* features,
                                 const SeedLabeler& seeds,
                                 const std::vector<ConceptId>& concepts) {
  // Concepts are independent (feature extraction and seed labeling only read
  // shared state), so they fan out across the pool; the ordered reduction
  // below keeps the result identical to a serial loop at any thread count.
  ScopedSpan span(&GlobalTrace(), "collect.batch");
  span.AddTag("concepts", static_cast<uint64_t>(concepts.size()));
  std::vector<ConceptTrainingData> per_concept =
      ParallelMap<ConceptTrainingData>(concepts.size(), [&](size_t i) {
        auto start = std::chrono::steady_clock::now();
        ConceptId c = concepts[i];
        ConceptTrainingData entry;
        entry.concept_id = c;
        for (InstanceId e : kb.LiveInstancesOf(c)) {
          entry.instances.push_back(e);
          entry.features.push_back(features->Extract(c, e));
          entry.seed_labels.push_back(seeds.Label(c, e));
        }
        CollectMetrics& metrics = GetCollectMetrics();
        metrics.concepts.Add();
        metrics.instances.Add(entry.instances.size());
        metrics.concept_ns.Observe(static_cast<double>(ElapsedNs(start)));
        return entry;
      });
  TrainingData data;
  data.reserve(concepts.size());
  for (ConceptTrainingData& entry : per_concept) {
    if (!entry.instances.empty()) data.push_back(std::move(entry));
  }
  return data;
}

bool HasLabeled(const TrainingData& data) {
  for (const auto& concept_data : data) {
    for (DpClass label : concept_data.seed_labels) {
      if (label != DpClass::kUnlabeled) return true;
    }
  }
  return false;
}

Result<TrainingData> CollectTrainingDataSupervised(
    const KnowledgeBase& kb, FeatureExtractor* features, const SeedLabeler& seeds,
    const std::vector<ConceptId>& concepts, Supervisor* supervisor) {
  struct Payload {
    ConceptTrainingData entry;
    std::vector<DroppedInstance> drops;
  };
  struct Slot {
    Payload payload;
    StageOutcome outcome;
  };
  // Guarded fan-out: each concept's gather runs its own attempt loop on a
  // pool worker. Guards only observe; all health mutation happens in the
  // ordered driver loop below, so the result is thread-count-invariant.
  ScopedSpan span(&GlobalTrace(), "collect.batch");
  span.AddTag("concepts", static_cast<uint64_t>(concepts.size()));
  std::vector<Slot> slots = ParallelMap<Slot>(concepts.size(), [&](size_t i) {
    ConceptId c = concepts[i];
    Slot slot;
    std::function<Payload(int)> body = [&, c](int attempt) {
      auto start = std::chrono::steady_clock::now();
      Payload payload;
      payload.entry.concept_id = c;
      bool poison = supervisor->NanFaultActive(PipelineStage::kCollectTraining,
                                               c.value, attempt);
      for (InstanceId e : kb.LiveInstancesOf(c)) {
        PollCancellation("collect training data");
        FeatureVector f = features->Extract(c, e);
        if (poison) {
          f[0] = std::numeric_limits<double>::quiet_NaN();
          poison = false;  // One poisoned instance is enough.
        }
        int bad = FirstNonFiniteIndex(f);
        if (bad >= 0) {
          payload.drops.push_back(DroppedInstance{
              c.value, e.value, PipelineStage::kCollectTraining,
              "non-finite feature f" + std::to_string(bad + 1)});
          continue;
        }
        payload.entry.instances.push_back(e);
        payload.entry.features.push_back(f);
        payload.entry.seed_labels.push_back(seeds.Label(c, e));
      }
      CollectMetrics& metrics = GetCollectMetrics();
      metrics.concepts.Add();
      metrics.instances.Add(payload.entry.instances.size());
      metrics.concept_ns.Observe(static_cast<double>(ElapsedNs(start)));
      return payload;
    };
    Payload value;
    if (supervisor->RunGuarded<Payload>(PipelineStage::kCollectTraining, c.value,
                                        body, {}, &value, &slot.outcome)) {
      slot.payload = std::move(value);
    }
    return slot;
  });

  TrainingData data;
  data.reserve(concepts.size());
  for (size_t i = 0; i < concepts.size(); ++i) {
    Status merged = supervisor->MergeOutcome(PipelineStage::kCollectTraining,
                                             concepts[i].value, slots[i].outcome);
    if (!merged.ok()) return merged;
    if (!slots[i].outcome.ok) continue;  // Quarantined: excluded from the pool.
    for (const DroppedInstance& drop : slots[i].payload.drops) {
      supervisor->health()->RecordDrop(drop);
    }
    if (!slots[i].payload.entry.instances.empty()) {
      data.push_back(std::move(slots[i].payload.entry));
    }
  }
  return data;
}

DpClass AdHocDetector::Classify(ConceptId /*c*/, const FeatureVector& f) const {
  double value = f[property_];
  bool is_dp = dp_below_ ? value < threshold_ : value > threshold_;
  if (!is_dp) return DpClass::kNonDP;
  return f[2] < type_threshold_ ? DpClass::kAccidentalDP : DpClass::kIntentionalDP;
}

DpClass ForestDetector::Classify(ConceptId /*c*/, const FeatureVector& f) const {
  std::vector<double> point(f.begin(), f.end());
  return static_cast<DpClass>(forest_.Predict(point));
}

LinearKpcaDetector::LinearKpcaDetector(KernelPca kpca,
                                       std::vector<std::pair<uint32_t, Matrix>> w,
                                       Matrix fallback)
    : kpca_(std::move(kpca)), w_(std::move(w)), fallback_(std::move(fallback)) {
  std::sort(w_.begin(), w_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

DpClass LinearKpcaDetector::Classify(ConceptId c, const FeatureVector& f) const {
  std::vector<double> raw(f.begin(), f.end());
  std::vector<double> projected = kpca_.Transform(raw);
  auto it = std::lower_bound(
      w_.begin(), w_.end(), c.value,
      [](const auto& entry, uint32_t value) { return entry.first < value; });
  const Matrix& wc =
      (it != w_.end() && it->first == c.value) ? it->second : fallback_;
  return static_cast<DpClass>(PredictClass(wc, projected));
}

namespace {

struct LabeledSample {
  FeatureVector features;
  DpClass label;
};

std::vector<LabeledSample> PoolLabeled(const TrainingData& data) {
  std::vector<LabeledSample> out;
  for (const auto& concept_data : data) {
    for (size_t i = 0; i < concept_data.instances.size(); ++i) {
      if (concept_data.seed_labels[i] == DpClass::kUnlabeled) continue;
      out.push_back(LabeledSample{concept_data.features[i],
                                  concept_data.seed_labels[i]});
    }
  }
  return out;
}

/// Learns the (threshold, direction) on one feature that maximizes the F1 of
/// binary DP detection over labeled seeds, plus the f3 threshold separating
/// Accidental from Intentional DPs.
std::unique_ptr<DpDetector> TrainAdHoc(int property_index,
                                       const std::vector<LabeledSample>& labeled) {
  std::vector<std::pair<double, bool>> samples;  // (value, is_dp)
  samples.reserve(labeled.size());
  size_t total_dps = 0;
  for (const auto& sample : labeled) {
    bool is_dp = sample.label != DpClass::kNonDP;
    samples.emplace_back(sample.features[property_index], is_dp);
    total_dps += is_dp ? 1 : 0;
  }
  if (samples.empty() || total_dps == 0 || total_dps == samples.size()) {
    return nullptr;
  }
  std::sort(samples.begin(), samples.end());

  // Scan all split points; evaluate both directions.
  double best_f1 = -1.0;
  double best_threshold = 0.0;
  bool best_dp_below = true;
  size_t dps_below = 0;
  for (size_t i = 0; i + 1 < samples.size(); ++i) {
    dps_below += samples[i].second ? 1 : 0;
    if (samples[i].first == samples[i + 1].first) continue;
    double threshold = 0.5 * (samples[i].first + samples[i + 1].first);
    size_t below = i + 1;
    // Direction "DP below threshold".
    {
      double tp = static_cast<double>(dps_below);
      double fp = static_cast<double>(below) - tp;
      double fn = static_cast<double>(total_dps) - tp;
      double f1 = tp > 0 ? 2 * tp / (2 * tp + fp + fn) : 0.0;
      if (f1 > best_f1) {
        best_f1 = f1;
        best_threshold = threshold;
        best_dp_below = true;
      }
    }
    // Direction "DP above threshold".
    {
      double tp = static_cast<double>(total_dps - dps_below);
      double fp = static_cast<double>(samples.size() - below) - tp;
      double fn = static_cast<double>(dps_below);
      double f1 = tp > 0 ? 2 * tp / (2 * tp + fp + fn) : 0.0;
      if (f1 > best_f1) {
        best_f1 = f1;
        best_threshold = threshold;
        best_dp_below = false;
      }
    }
  }

  // Secondary f3 threshold: best accuracy separating Accidental (below)
  // from Intentional (above) among labeled DPs.
  std::vector<std::pair<double, bool>> dp_f3;  // (f3, is_accidental)
  for (const auto& sample : labeled) {
    if (sample.label == DpClass::kIntentionalDP) {
      dp_f3.emplace_back(sample.features[2], false);
    } else if (sample.label == DpClass::kAccidentalDP) {
      dp_f3.emplace_back(sample.features[2], true);
    }
  }
  std::sort(dp_f3.begin(), dp_f3.end());
  double type_threshold = 0.0;
  size_t total_accidental = 0;
  for (const auto& [value, accidental] : dp_f3) {
    (void)value;
    total_accidental += accidental ? 1 : 0;
  }
  size_t best_correct = 0;
  size_t accidental_below = 0;
  for (size_t i = 0; i + 1 < dp_f3.size(); ++i) {
    accidental_below += dp_f3[i].second ? 1 : 0;
    size_t intentional_above =
        (dp_f3.size() - i - 1) - (total_accidental - accidental_below);
    size_t correct = accidental_below + intentional_above;
    if (correct > best_correct) {
      best_correct = correct;
      type_threshold = 0.5 * (dp_f3[i].first + dp_f3[i + 1].first);
    }
  }

  return std::make_unique<AdHocDetector>(property_index, best_threshold,
                                         best_dp_below, type_threshold);
}

/// Forest-fit instrumentation (registered once; recorded per fit). The
/// nodes/histogram counters expose how much work the histogram trainer's
/// subtraction trick saves: subtractions are scans avoided.
struct ForestMetrics {
  MetricsRegistry::Counter fits;
  MetricsRegistry::Counter fit_errors;
  MetricsRegistry::Counter nodes;
  MetricsRegistry::Counter histogram_builds;
  MetricsRegistry::Counter histogram_subtractions;
  MetricsRegistry::Histogram fit_ms;
};

ForestMetrics& GetForestMetrics() {
  static ForestMetrics metrics{
      GlobalMetrics().RegisterCounter("ml.forest.fits"),
      GlobalMetrics().RegisterCounter("ml.forest.fit_errors"),
      GlobalMetrics().RegisterCounter("ml.forest.nodes"),
      GlobalMetrics().RegisterCounter("ml.forest.histogram_builds"),
      GlobalMetrics().RegisterCounter("ml.forest.histogram_subtractions"),
      GlobalMetrics().RegisterHistogram("ml.forest.fit_ms", LatencyBucketsMs())};
  return metrics;
}

std::unique_ptr<DpDetector> TrainForest(const std::vector<LabeledSample>& labeled,
                                        const RandomForestOptions& options) {
  if (labeled.empty()) return nullptr;
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  x.reserve(labeled.size());
  y.reserve(labeled.size());
  for (const auto& sample : labeled) {
    x.emplace_back(sample.features.begin(), sample.features.end());
    y.push_back(static_cast<int>(sample.label));
  }
  RandomForest forest;
  ForestMetrics& metrics = GetForestMetrics();
  Timer timer;
  Status fit = forest.Fit(x, y, /*num_classes=*/3, options);
  if (!fit.ok()) {
    // Degenerate training input (e.g. every labeled row NaN-dropped). Same
    // nullptr contract as "nothing to train on"; the supervised path's
    // fallback ladder takes it from here.
    metrics.fit_errors.Add();
    return nullptr;
  }
  metrics.fits.Add();
  metrics.fit_ms.Observe(timer.ElapsedMillis());
  metrics.nodes.Add(forest.fit_stats().nodes);
  metrics.histogram_builds.Add(forest.fit_stats().histogram_builds);
  metrics.histogram_subtractions.Add(forest.fit_stats().histogram_subtractions);
  return std::make_unique<ForestDetector>(std::move(forest));
}

std::unique_ptr<DpDetector> TrainLinearKpca(const TrainingData& data,
                                            const DetectorTrainOptions& options,
                                            bool multitask) {
  Rng rng(options.seed);

  // 1. Build the pooled sample: every labeled row plus a per-concept sample
  //    of unlabeled rows (the semi-supervised ingredient).
  std::vector<FeatureVector> pool;
  for (const auto& concept_data : data) {
    std::vector<size_t> unlabeled;
    for (size_t i = 0; i < concept_data.instances.size(); ++i) {
      if (concept_data.seed_labels[i] == DpClass::kUnlabeled) {
        unlabeled.push_back(i);
      } else {
        pool.push_back(concept_data.features[i]);
      }
    }
    rng.Shuffle(&unlabeled);
    size_t take = std::min<size_t>(unlabeled.size(),
                                   static_cast<size_t>(options.max_unlabeled_per_concept));
    for (size_t t = 0; t < take; ++t) {
      pool.push_back(concept_data.features[unlabeled[t]]);
    }
  }
  if (pool.size() < 4) return nullptr;
  if (pool.size() > static_cast<size_t>(options.max_pool_samples)) {
    rng.Shuffle(&pool);
    pool.resize(options.max_pool_samples);
  }

  Matrix pool_matrix(pool.size(), 4);
  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t j = 0; j < 4; ++j) pool_matrix(i, j) = pool[i][j];
  }

  // 2. Kernel PCA representation (Sec. 3.3.1).
  KernelPca kpca;
  if (!kpca.Fit(pool_matrix, options.kpca)) return nullptr;
  size_t r = kpca.num_components();

  // 3. Shared manifold regularizer over the pooled representation (Eq. 17).
  Matrix pool_projected = kpca.TransformMatrix(pool_matrix);
  Matrix a = BuildManifoldRegularizer(pool_projected, options.manifold);

  // 4. One learning task per concept with labeled data. The tasks are
  //    allocated here in concept order; the pool then projects each task's
  //    labeled rows (the tasks live through training, so their storage
  //    stays out of the workers' allocator arenas).
  std::vector<LearningTask> tasks;
  std::vector<const ConceptTrainingData*> task_data;
  std::vector<std::vector<size_t>> task_rows;
  std::vector<uint32_t> task_concepts;
  for (const auto& concept_data : data) {
    std::vector<size_t> labeled_rows;
    for (size_t i = 0; i < concept_data.instances.size(); ++i) {
      if (concept_data.seed_labels[i] != DpClass::kUnlabeled) labeled_rows.push_back(i);
    }
    if (labeled_rows.empty()) continue;
    LearningTask task;
    task.xl = Matrix(labeled_rows.size(), r);
    task.y = Matrix(labeled_rows.size(), 3);
    tasks.push_back(std::move(task));
    task_data.push_back(&concept_data);
    task_rows.push_back(std::move(labeled_rows));
    task_concepts.push_back(concept_data.concept_id.value);
  }
  if (tasks.empty()) return nullptr;
  ParallelFor(tasks.size(), [&](size_t t) {
    const ConceptTrainingData& concept_data = *task_data[t];
    for (size_t row = 0; row < task_rows[t].size(); ++row) {
      size_t i = task_rows[t][row];
      std::vector<double> raw(concept_data.features[i].begin(),
                              concept_data.features[i].end());
      std::vector<double> projected = kpca.Transform(raw);
      for (size_t p = 0; p < r; ++p) tasks[t].xl(row, p) = projected[p];
      tasks[t].y(row, static_cast<size_t>(concept_data.seed_labels[i])) = 1.0;
    }
  });

  // 5. Train (Eq. 15 independently, or Eq. 18 / Algorithm 1 jointly). A
  //    system that is not positive definite yields no detector, which sends
  //    the supervised path down its fallback ladder.
  std::vector<Matrix> w;
  if (multitask) {
    MultiTaskResult result = TrainMultiTask(tasks, a, options.multitask);
    if (!result.status.ok()) return nullptr;
    w = std::move(result.w);
  } else {
    w.reserve(tasks.size());
    for (const auto& task : tasks) {
      w.push_back(TrainSemiSupervised(task, a, options.multitask));
      if (w.back().rows() == 0) return nullptr;
    }
  }

  // 6. Mean classifier as the fallback for concepts without labels.
  Matrix fallback(r, 3);
  for (const Matrix& wc : w) fallback.AddInPlace(wc);
  fallback.Scale(1.0 / static_cast<double>(w.size()));

  std::vector<std::pair<uint32_t, Matrix>> by_concept;
  by_concept.reserve(w.size());
  for (size_t t = 0; t < w.size(); ++t) {
    by_concept.emplace_back(task_concepts[t], std::move(w[t]));
  }
  return std::make_unique<LinearKpcaDetector>(std::move(kpca), std::move(by_concept),
                                              std::move(fallback));
}

}  // namespace

const char* DetectorKindName(DetectorKind kind) {
  switch (kind) {
    case DetectorKind::kAdHoc1:
      return "ad-hoc-1";
    case DetectorKind::kAdHoc2:
      return "ad-hoc-2";
    case DetectorKind::kAdHoc3:
      return "ad-hoc-3";
    case DetectorKind::kAdHoc4:
      return "ad-hoc-4";
    case DetectorKind::kSupervised:
      return "supervised";
    case DetectorKind::kSemiSupervised:
      return "semi-supervised";
    case DetectorKind::kSemiSupervisedMultiTask:
      return "semi-supervised-multitask";
  }
  return "unknown";
}

std::unique_ptr<DpDetector> TrainDetector(DetectorKind kind, const TrainingData& data,
                                          const DetectorTrainOptions& options) {
  // Metrics only: TrainDetector runs both from serial drivers and from the
  // guarded attempt thread, so spans (which must record in deterministic
  // order) are emitted by the callers instead.
  static MetricsRegistry::Counter train_calls =
      GlobalMetrics().RegisterCounter("train.calls");
  static MetricsRegistry::Histogram train_ns =
      GlobalMetrics().RegisterHistogram("train.ns", LatencyBucketsNs());
  auto start = std::chrono::steady_clock::now();
  train_calls.Add();
  struct TrainTimer {
    std::chrono::steady_clock::time_point start;
    MetricsRegistry::Histogram* hist;
    ~TrainTimer() { hist->Observe(static_cast<double>(ElapsedNs(start))); }
  } timer{start, &train_ns};
  std::vector<LabeledSample> labeled = PoolLabeled(data);
  switch (kind) {
    case DetectorKind::kAdHoc1:
      return TrainAdHoc(0, labeled);
    case DetectorKind::kAdHoc2:
      return TrainAdHoc(1, labeled);
    case DetectorKind::kAdHoc3:
      return TrainAdHoc(2, labeled);
    case DetectorKind::kAdHoc4:
      return TrainAdHoc(3, labeled);
    case DetectorKind::kSupervised:
      return TrainForest(labeled, options.forest);
    case DetectorKind::kSemiSupervised:
      return TrainLinearKpca(data, options, /*multitask=*/false);
    case DetectorKind::kSemiSupervisedMultiTask:
      return TrainLinearKpca(data, options, /*multitask=*/true);
  }
  return nullptr;
}

Result<SupervisedTrainResult> TrainDetectorSupervised(
    DetectorKind kind, const TrainingData& data, const DetectorTrainOptions& options,
    Supervisor* supervisor) {
  SupervisedTrainResult result;
  // No labeled seeds is not a fault: same nullptr contract as TrainDetector,
  // and the caller decides whether that ends cleaning.
  if (!HasLabeled(data)) return result;

  ScopedSpan span(&GlobalTrace(), "detector.train");
  span.AddTag("kind", DetectorKindName(kind));

  std::function<std::unique_ptr<DpDetector>(int)> body = [&](int attempt) {
    (void)attempt;
    return TrainDetector(kind, data, options);
  };
  std::function<std::string(const std::unique_ptr<DpDetector>&)> validate =
      [](const std::unique_ptr<DpDetector>& detector) {
        return detector != nullptr ? std::string()
                                   : std::string("training produced no detector");
      };
  StageOutcome outcome;
  std::unique_ptr<DpDetector> trained;
  supervisor->RunGuarded<std::unique_ptr<DpDetector>>(
      PipelineStage::kDetectorTrain, ComputeFaultPlan::kGlobalScope, body, validate,
      &trained, &outcome);
  result.retries = outcome.retries;
  if (outcome.ok) {
    span.SetOutcome(outcome.retries > 0 ? "retried" : "ok");
    result.detector = std::move(trained);
    return result;
  }
  span.SetOutcome("fallback");

  // Degrade down the ad-hoc ladder. The fallbacks run unguarded: they are
  // the last resort, have no numeric fitting to fail, and an injected
  // persistent train fault must not take them down with the primary.
  for (DetectorKind fallback : {DetectorKind::kAdHoc3, DetectorKind::kAdHoc1}) {
    if (fallback == kind) continue;
    result.detector = TrainDetector(fallback, data, options);
    if (result.detector != nullptr) {
      result.fell_back = true;
      result.detail = std::string(DetectorKindName(kind)) + " failed (" +
                      outcome.error + "); fell back to " +
                      DetectorKindName(fallback);
      supervisor->health()->RecordDetectorFallback(outcome.retries, result.detail);
      return result;
    }
  }

  // Even the ladder failed. Fail-fast mode surfaces the primary error;
  // quarantine mode records the degradation and returns no detector (the
  // cleaner stops cleaning, which is the maximal graceful degradation).
  span.SetOutcome("failed");
  if (!supervisor->options().quarantine) {
    return Status::Internal("detector training failed after " +
                            std::to_string(outcome.retries) +
                            " retries and no fallback trained: " + outcome.error);
  }
  result.detail = std::string(DetectorKindName(kind)) +
                  " and all fallbacks failed: " + outcome.error;
  supervisor->health()->RecordDetectorFallback(outcome.retries, result.detail);
  return result;
}

}  // namespace semdrift
