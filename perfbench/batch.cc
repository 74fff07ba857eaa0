// batch-run: the paper's pipeline as `semdrift run` composes it. Untraced it
// times whole runs; traced it rebuilds every cleaning round from the
// layers' public calls, times each call, and requires the resulting image
// to be byte-identical to an untraced DpCleaner::Clean run.
#include <algorithm>
#include <unordered_set>

#include "dp/cleaner.h"
#include "dp/detector.h"
#include "dp/sentence_check.h"
#include "eval/metrics.h"
#include "extract/extractor.h"
#include "ml/kpca.h"
#include "ml/manifold.h"
#include "ml/multitask.h"
#include "mutex/mutex_index.h"
#include "obs/trace.h"
#include "rank/scorers.h"
#include "serve/query_engine.h"
#include "util/crc32.h"
#include "workloads.h"

namespace perfbench {

using namespace semdrift;

namespace {

constexpr double kBatchScale = 0.034;  // 4080 sentences: the generator's floor.
/// Lines in each world's read sample (socket reads cycle through them;
/// the traced run times QueryEngine::Answer over all of them).
constexpr size_t kReadsPerRun = 50000;
constexpr int kWorldsPerRun = 2;
constexpr double kReadSeconds = 1.0;
constexpr int kReadAttempts = 3;

/// Metrics of layers batch-run never calls: the stream epochs, the direct
/// batcher, the single-connection round trip and the serve ladder.
constexpr const char* kNotMeasured[] = {
    "stream.incremental_epoch_s", "stream.rebuild_epoch_s", "stream.dirty_concepts",
    "stream.publish_bytes", "serve.batcher_us_p50", "serve.batcher_us_p99",
    "net.roundtrip_us_p50", "net.closed_loop_s", "loadgen.max_ok_qps",
};

/// Time and work of the traced, decomposed run, summed over rounds.
struct Layers {
  double extract_s = 0, mutex_s = 0, warm_s = 0, warm_cpu_s = 0, seeds_s = 0;
  double collect_s = 0, collect_cpu_s = 0, train_s = 0, pool_s = 0, fit_s = 0;
  double project_s = 0, manifold_s = 0, task_s = 0, solve_s = 0, classify_s = 0;
  double classify_cpu_s = 0, adjudicate_s = 0, compile_s = 0;
  uint64_t iterations = 0, extractions = 0, labeled_rows = 0, collect_rows = 0;
  uint64_t train_calls = 0;
  uint64_t solve_iterations = 0, components = 0, pool_rows = 0, tasks = 0;
  uint64_t detections = 0, eq21_checks = 0, eq21_rolled_back = 0;
  uint64_t records_rolled_back = 0, rounds = 0;
};

/// Adds the wall (and optionally CPU) seconds of `fn` to the given slots.
template <typename Fn>
auto Timed(double* wall, double* cpu, Fn&& fn) {
  struct Add {
    double* wall;
    double* cpu;
    CpuWallTimer timer;
    ~Add() {
      *wall += timer.WallSeconds();
      if (cpu != nullptr) *cpu += timer.CpuSeconds();
    }
  } add{wall, cpu, {}};
  return fn();
}

/// TrainDetector(kSemiSupervisedMultiTask) rebuilt from the ml/ layer's
/// public calls, in the same order and with the same seeded shuffles.
std::unique_ptr<DpDetector> TrainDecomposed(const TrainingData& data,
                                            const DetectorTrainOptions& options,
                                            Layers* layers) {
  Rng rng(options.seed);
  std::vector<FeatureVector> pool;
  Matrix pool_matrix = Timed(&layers->pool_s, nullptr, [&] {
    for (const ConceptTrainingData& concept_data : data) {
      std::vector<size_t> unlabeled;
      for (size_t i = 0; i < concept_data.instances.size(); ++i) {
        if (concept_data.seed_labels[i] == DpClass::kUnlabeled) {
          unlabeled.push_back(i);
        } else {
          pool.push_back(concept_data.features[i]);
        }
      }
      rng.Shuffle(&unlabeled);
      const size_t take = std::min<size_t>(
          unlabeled.size(), static_cast<size_t>(options.max_unlabeled_per_concept));
      for (size_t t = 0; t < take; ++t) pool.push_back(concept_data.features[unlabeled[t]]);
    }
    if (pool.size() > static_cast<size_t>(options.max_pool_samples)) {
      rng.Shuffle(&pool);
      pool.resize(options.max_pool_samples);
    }
    Matrix m(pool.size(), 4);
    for (size_t i = 0; i < pool.size(); ++i) {
      for (size_t j = 0; j < 4; ++j) m(i, j) = pool[i][j];
    }
    return m;
  });
  if (pool.size() < 4) return nullptr;
  layers->pool_rows = pool.size();

  KernelPca kpca;
  if (!Timed(&layers->fit_s, nullptr, [&] { return kpca.Fit(pool_matrix, options.kpca); })) {
    return nullptr;
  }
  const size_t r = kpca.num_components();
  layers->components = r;
  Matrix projected =
      Timed(&layers->project_s, nullptr, [&] { return kpca.TransformMatrix(pool_matrix); });
  Matrix a = Timed(&layers->manifold_s, nullptr,
                   [&] { return BuildManifoldRegularizer(projected, options.manifold); });

  std::vector<LearningTask> tasks;
  std::vector<uint32_t> task_concepts;
  Timed(&layers->task_s, nullptr, [&] {
    for (const ConceptTrainingData& concept_data : data) {
      std::vector<size_t> labeled_rows;
      for (size_t i = 0; i < concept_data.instances.size(); ++i) {
        if (concept_data.seed_labels[i] != DpClass::kUnlabeled) labeled_rows.push_back(i);
      }
      if (labeled_rows.empty()) continue;
      LearningTask task;
      task.xl = Matrix(labeled_rows.size(), r);
      task.y = Matrix(labeled_rows.size(), 3);
      for (size_t row = 0; row < labeled_rows.size(); ++row) {
        const size_t i = labeled_rows[row];
        std::vector<double> raw(concept_data.features[i].begin(),
                                concept_data.features[i].end());
        std::vector<double> x = kpca.Transform(raw);
        for (size_t p = 0; p < r; ++p) task.xl(row, p) = x[p];
        task.y(row, static_cast<size_t>(concept_data.seed_labels[i])) = 1.0;
      }
      tasks.push_back(std::move(task));
      task_concepts.push_back(concept_data.concept_id.value);
    }
    return 0;
  });
  if (tasks.empty()) return nullptr;
  layers->tasks = tasks.size();

  MultiTaskResult solved = Timed(&layers->solve_s, nullptr,
                                 [&] { return TrainMultiTask(tasks, a, options.multitask); });
  layers->solve_iterations += solved.objective_trace.size();

  Matrix fallback(r, 3);
  for (const Matrix& wc : solved.w) fallback.AddInPlace(wc);
  fallback.Scale(1.0 / static_cast<double>(solved.w.size()));
  std::vector<std::pair<uint32_t, Matrix>> by_concept;
  by_concept.reserve(solved.w.size());
  for (size_t t = 0; t < solved.w.size(); ++t) {
    by_concept.emplace_back(task_concepts[t], std::move(solved.w[t]));
  }
  return std::make_unique<LinearKpcaDetector>(std::move(kpca), std::move(by_concept),
                                              std::move(fallback));
}

struct Detection {
  IsAPair pair;
  DpClass type;
};

/// DpCleaner::Clean (unsupervised, default options) rebuilt round by round
/// from the layers' public calls.
void CleanDecomposed(const Experiment& experiment, KnowledgeBase* kb,
                     const std::vector<ConceptId>& scope, const CleanerOptions& options,
                     Layers* layers) {
  const SentenceStore& sentences = experiment.corpus().sentences;
  const VerifiedSource verified = experiment.MakeVerifiedSource();
  const size_t num_concepts = experiment.world().num_concepts();
  std::unordered_set<IsAPair, IsAPairHash> seen_accidental, seen_intentional;
  std::unique_ptr<DpDetector> detector;

  for (int round = 1; round <= options.max_rounds; ++round) {
    if (scope.empty()) break;
    std::unique_ptr<MutexIndex> mutex = Timed(&layers->mutex_s, nullptr, [&] {
      return std::make_unique<MutexIndex>(*kb, num_concepts, options.mutex);
    });
    ScoreCache scores(kb, options.score_model);
    Timed(&layers->warm_s, &layers->warm_cpu_s, [&] {
      scores.Warm(scope);
      return 0;
    });
    FeatureExtractor features(kb, mutex.get(), &scores);
    std::unique_ptr<SeedLabeler> seeds = Timed(&layers->seeds_s, nullptr, [&] {
      return std::make_unique<SeedLabeler>(kb, mutex.get(), verified, options.seeds);
    });

    if (options.retrain_each_round || detector == nullptr) {
      TrainingData data = Timed(&layers->collect_s, &layers->collect_cpu_s, [&] {
        return CollectTrainingData(*kb, &features, *seeds, scope);
      });
      for (const ConceptTrainingData& entry : data) {
        layers->collect_rows += entry.instances.size();
        for (DpClass label : entry.seed_labels) {
          layers->labeled_rows += label != DpClass::kUnlabeled ? 1 : 0;
        }
      }
      ++layers->train_calls;
      std::unique_ptr<DpDetector> trained = Timed(&layers->train_s, nullptr, [&] {
        return TrainDecomposed(data, options.train, layers);
      });
      if (trained != nullptr) {
        detector = std::move(trained);
      } else if (detector == nullptr) {
        break;
      }
    }

    std::vector<Detection> detections =
        Timed(&layers->classify_s, &layers->classify_cpu_s, [&] {
          std::vector<Detection> out;
          for (ConceptId c : scope) {
            for (InstanceId e : kb->LiveInstancesOf(c)) {
              const DpClass type = detector->Classify(c, features.Extract(c, e));
              if (type == DpClass::kAccidentalDP || type == DpClass::kIntentionalDP) {
                out.push_back(Detection{IsAPair{c, e}, type});
              }
            }
          }
          return out;
        });
    layers->detections += detections.size();

    // Eq. 21 adjudication and rollbacks, as the cleaner orders them.
    const size_t rolled = Timed(&layers->adjudicate_s, nullptr, [&] {
      size_t rolled_this_round = 0;
      auto adjudicate = [&](uint32_t record_id) -> size_t {
        const ExtractionRecord& record = kb->record(record_id);
        if (record.rolled_back) return 0;
        const Sentence& sentence = sentences.Get(record.sentence);
        if (sentence.candidate_concepts.size() < 2) return 0;
        const SmoothedVote vote = SmoothedAttachmentVote(
            sentence, record.concept_id, &scores, options.eq21_smoothing);
        const ConceptId raw_best = BestAttachment(sentence, &scores);
        const bool roll_back =
            vote.best != record.concept_id || raw_best != record.concept_id ||
            vote.average_vote_for_extracted < options.eq21_min_average_vote;
        ++layers->eq21_checks;
        if (!roll_back) return 0;
        ++layers->eq21_rolled_back;
        return static_cast<size_t>(kb->RollbackRecord(record_id, options.cascade));
      };
      for (const Detection& detection : detections) {
        if (!kb->Contains(detection.pair)) continue;
        if (detection.type == DpClass::kAccidentalDP) {
          seen_accidental.insert(detection.pair);
          for (uint32_t record_id : kb->LiveRecordsTriggeredBy(detection.pair)) {
            rolled_this_round += adjudicate(record_id);
          }
          const PairStats* stats = kb->Find(detection.pair);
          if (stats == nullptr) continue;
          std::vector<uint32_t> producers = stats->producing_records;
          for (uint32_t record_id : producers) {
            const ExtractionRecord& record = kb->record(record_id);
            if (record.rolled_back) continue;
            if (sentences.Get(record.sentence).candidate_concepts.size() >= 2) {
              rolled_this_round += adjudicate(record_id);
            } else if (kb->Count(detection.pair) == 1) {
              rolled_this_round +=
                  static_cast<size_t>(kb->RollbackRecord(record_id, options.cascade));
            }
          }
        } else {
          seen_intentional.insert(detection.pair);
          for (uint32_t record_id : kb->LiveRecordsTriggeredBy(detection.pair)) {
            rolled_this_round += adjudicate(record_id);
          }
        }
      }
      return rolled_this_round;
    });
    layers->records_rolled_back += rolled;
    layers->rounds = static_cast<uint64_t>(round);
    if (rolled == 0) break;
  }
}

/// The traced run: extraction, decomposed cleaning, compile. Returns the
/// image; `kb_out` receives the cleaned KB.
std::string RunDecomposed(const Experiment& experiment, Layers* layers,
                          KnowledgeBase* kb_out, double* wall_s) {
  const std::vector<ConceptId> scope = experiment.AllConcepts();
  CpuWallTimer timer;
  KnowledgeBase kb;
  Timed(&layers->extract_s, nullptr, [&] {
    IterativeExtractor extractor(&experiment.corpus().sentences,
                                 experiment.config().extractor);
    for (const IterationStats& it : extractor.Run(&kb)) {
      ++layers->iterations;
      layers->extractions += it.extractions;
    }
    return 0;
  });
  CleanDecomposed(experiment, &kb, scope, CleanerOptions{}, layers);
  std::string image = Timed(&layers->compile_s, nullptr,
                            [&] { return CompileImage(kb, experiment.world()); });
  *wall_s = timer.WallSeconds();
  *kb_out = std::move(kb);
  return image;
}

/// In-process reads of `lines` through `engine`, each timed and checked.
struct ReadPass {
  std::vector<double> latency_us;
  uint64_t failed = 0;
};

ReadPass ReadThrough(QueryEngine* engine, const std::vector<std::string>& lines,
                     const std::vector<std::string>& expected) {
  ReadPass pass;
  pass.latency_us.reserve(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    const int64_t start = NowNs();
    std::string answer = engine->Answer(lines[i]);
    pass.latency_us.push_back(static_cast<double>(NowNs() - start) * 1e-3);
    if (IsFailure(answer) || answer != expected[i]) ++pass.failed;
  }
  return pass;
}

/// Publishes `image` as `generation` and has the manager install it.
/// Returns the seconds the publish and the installing Poll took.
double PublishAndSwap(RunContext* ctx, SnapshotManager* manager, const std::string& dir,
                      const std::string& image, uint64_t generation, double* poll_ms) {
  CpuWallTimer timer;
  const Status published = PublishImage(image, dir, generation);
  CpuWallTimer poll_timer;
  const SnapshotPollResult poll = manager->Poll();
  *poll_ms = poll_timer.WallSeconds() * 1e3;
  const double seconds = timer.WallSeconds();
  ctx->Check(published.ok(), "publish generation " + std::to_string(generation));
  ctx->Check(poll.swaps == 1 && manager->generation() == generation,
             "manager did not install generation " + std::to_string(generation));
  return seconds;
}

}  // namespace

int RunBatchWorkload(RunContext* ctx) {
  // Each run covers two seeded worlds and runs the first one twice:
  // cleaning's work (rounds, solver iterations) varies from world to world,
  // and the mean over the three runs keeps one seed's luck from deciding
  // the run.
  std::vector<std::unique_ptr<Experiment>> worlds;
  const double setup_s = MedianSetup(kSetupRepeats, [&] {
    worlds.clear();
    for (int i = 0; i < kWorldsPerRun; ++i) {
      worlds.push_back(BuildExperiment(kBatchScale, ctx->seed * kWorldsPerRun + i));
    }
  });
  ctx->Param("scale", kBatchScale);
  ctx->Param("worlds_per_run", kWorldsPerRun);
  ctx->Param("sentences", static_cast<double>(worlds[0]->corpus().sentences.size()));
  ctx->Param("concepts", static_cast<double>(worlds[0]->world().num_concepts()));
  ctx->Param("reads_per_run", static_cast<double>(kReadsPerRun));

  const std::string pub = ctx->work_dir + "/pub";
  if (Status s = ResetDir(pub); !s.ok()) {
    ctx->Check(false, s.ToString());
    return 1;
  }
  uint64_t generation = 0;

  // A run's read sample and its reference answers, from its own image.
  std::vector<std::string> lines, expected;
  auto prepare_reads = [&](const std::string& image) {
    lines.clear();
    expected.clear();
    Result<SnapshotReader> reader = SnapshotReader::OpenFromBuffer(image, "reads");
    if (!reader.ok()) return;
    lines = MakeRequestLines(PairsOf(*reader), KeyDist::kUniform, ctx->seed ^ 0x5eadULL,
                             kReadsPerRun);
    expected = ReferenceAnswers(*reader, lines);
  };
  // One socket read pass at the light rate the other workloads' readers
  // use. A pass whose generator fell behind is not reported; it is retried.
  uint64_t read_passes = 0, invalid_passes = 0;
  auto read_pass = [&](const std::string& endpoint) {
    OpenLoopOptions reads;
    reads.endpoint = endpoint;
    reads.rate = kReadQps;
    reads.seconds = kReadSeconds;
    reads.limit_us = kReadLimitUs;
    reads.late_limit_us = kReadLimitUs;
    reads.window_requests = kReadWindow;
    reads.keep_samples = true;
    OpenLoopResult r;
    for (int attempt = 0; attempt < kReadAttempts; ++attempt) {
      r = RunOpenLoop(reads, RequestSet{lines, expected});
      ++read_passes;
      ctx->attempted += RequestsFor(reads.rate, reads.seconds);
      ctx->failed += r.failed;
      ctx->Check(r.failed == 0, "socket reads failed or differ from QueryEngine::Answer");
      if (!r.behind) break;
      ++invalid_passes;
    }
    ctx->Check(!r.behind, "reader fell behind its schedule (run invalid)");
    return r;
  };
  auto check_run = [&](const BatchRun& run, const char* label) {
    ctx->Check(run.kb_valid.ok(), std::string(label) + " KB: " + run.kb_valid.ToString());
    ctx->Check(run.snapshot_valid.ok(),
               std::string(label) + " snapshot: " + run.snapshot_valid.ToString());
  };

  if (!ctx->traced) {
    // Each world's image is served over a unix socket as it is published,
    // and read at the same light rate the other workloads' readers use.
    LiveServer server(pub, ctx->work_dir + "/batch.sock");
    bool serving = false;
    std::vector<double> run_s, freshness_s, precision, read_us;
    for (const std::unique_ptr<Experiment>& experiment : worlds) {
      BatchRun run = RunBatchPipeline(*experiment);
      ++ctx->attempted;
      check_run(run, "batch");
      ++generation;
      const int64_t publish_start = NowNs();
      Status installed = PublishImage(run.image, pub, generation);
      if (installed.ok() && !serving) {
        installed = server.Start(/*watch_poll_ms=*/0);
        serving = installed.ok();
      } else if (installed.ok() && server.manager().Poll().swaps != 1) {
        installed = Status::Internal("the manager did not swap");
      }
      const int64_t visible =
          installed.ok() ? WaitForGeneration(server.endpoint(), generation, 10.0) : 0;
      if (visible == 0) {
        ctx->Check(false, "generation " + std::to_string(generation) +
                              " was not served: " + installed.ToString());
        break;
      }
      run_s.push_back(run.run_s);
      precision.push_back(run.precision);
      freshness_s.push_back(run.run_s + static_cast<double>(visible - publish_start) * 1e-9);

      prepare_reads(run.image);
      const OpenLoopResult r = read_pass(server.endpoint());
      read_us.insert(read_us.end(), r.latency_samples.begin(), r.latency_samples.end());

      if (&experiment == &worlds.front()) {
        // The same seed again must give the same image, byte for byte.
        BatchRun repeat = RunBatchPipeline(*experiment);
        ++ctx->attempted;
        check_run(repeat, "repeat");
        ctx->Check(Crc32Of(repeat.image) == Crc32Of(run.image),
                   "image CRC differs between repeats of one seed");
        run_s.push_back(repeat.run_s);
      }
    }
    const Tail reads = Summarize(read_us);
    ctx->Param("read_passes", static_cast<double>(read_passes));
    ctx->Param("read_passes_invalid", static_cast<double>(invalid_passes));
    ctx->Param("read_samples", static_cast<double>(reads.n));
    ctx->Param("read_tail_quantile", reads.tail_q);
    ctx->Param("read_tail_us", reads.tail);
    std::string per_world = "[";
    for (double t : run_s) per_world += (per_world.size() > 1 ? ", " : "") + JsonNumber(t);
    ctx->Param("run_s_per_world", per_world + "]");
    Report& r = ctx->report;
    r.Set("setup_s", setup_s);
    r.Set("freshness_s", Mean(freshness_s));
    r.Set("p50_us", MedianWindowQuantile(read_us, kReadWindow, 0.5));
    r.Set("precision", Mean(precision));
    r.Set("peak_rss_mb", PeakRssMb());
    return 0;
  }

  // Traced: an untraced reference run, then the decomposed run with the
  // program's own trace recorder on as well.
  const Experiment* experiment = worlds.front().get();
  BatchRun reference = RunBatchPipeline(*experiment);
  ++ctx->attempted;
  check_run(reference, "reference");
  // The reference image is served as generation 1; the decomposed image
  // is swapped in as generation 2 and read over the socket.
  LiveServer server(pub, ctx->work_dir + "/batch.sock");
  Status serving = PublishImage(reference.image, pub, ++generation);
  if (serving.ok()) serving = server.Start(/*watch_poll_ms=*/0);
  if (!serving.ok()) {
    ctx->Check(false, "serving the reference image: " + serving.ToString());
    return 1;
  }
  Layers layers;
  KnowledgeBase decomposed_kb;
  double traced_wall_s = 0.0;
  GlobalTrace().Enable(true);
  const std::string image = RunDecomposed(*experiment, &layers, &decomposed_kb, &traced_wall_s);
  GlobalTrace().Enable(false);
  ++ctx->attempted;
  ctx->Check(image == reference.image,
             "decomposition check: traced image differs from DpCleaner::Clean's");
  ctx->Check(decomposed_kb.Validate(experiment->world().num_concepts(),
                                    experiment->corpus().sentences.size())
                 .ok(),
             "decomposed KB fails Validate");

  double poll_ms = 0.0;
  const double publish_s =
      PublishAndSwap(ctx, &server.manager(), pub, image, ++generation, &poll_ms);
  prepare_reads(image);
  const CounterWindow shed("batch.shed");
  const uint64_t pauses_before = server.server().counters().backpressure_pauses;
  HistogramWindow queue_wait("batch.queue_wait_ns"), batch_size("batch.size");
  const OpenLoopResult socket_reads = read_pass(server.endpoint());
  const HistogramWindow::Delta waits = queue_wait.Take();
  const HistogramWindow::Delta sizes = batch_size.Take();

  Result<SnapshotReader> reader = SnapshotReader::OpenFromBuffer(image, "engine");
  double engine_p50 = 0.0, engine_p99 = 0.0, hit_rate = 0.0;
  if (reader.ok() && !lines.empty()) {
    QueryEngine engine(&*reader);
    ReadPass pass = ReadThrough(&engine, lines, expected);
    ctx->attempted += lines.size();
    ctx->failed += pass.failed;
    ctx->Check(pass.failed == 0, "engine answers differ from the reference");
    const Tail t = Summarize(std::move(pass.latency_us));
    engine_p50 = t.p50;
    engine_p99 = t.tail;
    uint64_t hits = 0, count = 0;
    for (int q = 0; q < static_cast<int>(QueryType::kStats); ++q) {
      const QueryTypeStats s = engine.stats().Snapshot(static_cast<QueryType>(q));
      hits += s.cache_hits;
      count += s.count;
    }
    hit_rate = count == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(count);
  }

  const double attributed = layers.extract_s + layers.mutex_s + layers.warm_s +
                            layers.seeds_s + layers.collect_s + layers.train_s +
                            layers.classify_s + layers.adjudicate_s + layers.compile_s;
  Report& r = ctx->report;
  r.Set("traced_wall_s", traced_wall_s);
  r.Set("extract.run_s", layers.extract_s);
  r.Set("extract.iterations", static_cast<double>(layers.iterations));
  r.Set("extract.extractions", static_cast<double>(layers.extractions));
  r.Set("mutex.build_s", layers.mutex_s);
  r.Set("rank.warm_s", layers.warm_s);
  r.Set("rank.warm_cpu_ratio", layers.warm_s > 0 ? layers.warm_cpu_s / layers.warm_s : 0.0);
  r.Set("dp.seeds_s", layers.seeds_s);
  r.Set("dp.collect_s", layers.collect_s);
  r.Set("dp.collect_cpu_ratio",
        layers.collect_s > 0 ? layers.collect_cpu_s / layers.collect_s : 0.0);
  r.Set("dp.labeled_rows", static_cast<double>(layers.labeled_rows));
  r.Set("dp.collect_rows", static_cast<double>(layers.collect_rows));
  r.Set("dp.train_s", layers.train_s);
  r.Set("dp.train_calls", static_cast<double>(layers.train_calls));
  r.Set("ml.pool_build_s", layers.pool_s);
  r.Set("ml.kpca_fit_s", layers.fit_s);
  r.Set("ml.kpca_project_s", layers.project_s);
  r.Set("ml.manifold_s", layers.manifold_s);
  r.Set("ml.task_build_s", layers.task_s);
  r.Set("ml.solve_s", layers.solve_s);
  r.Set("ml.solve_iterations", static_cast<double>(layers.solve_iterations));
  r.Set("ml.kpca_components", static_cast<double>(layers.components));
  r.Set("ml.pool_rows", static_cast<double>(layers.pool_rows));
  r.Set("ml.tasks", static_cast<double>(layers.tasks));
  r.Set("dp.classify_s", layers.classify_s);
  r.Set("dp.classify_cpu_ratio",
        layers.classify_s > 0 ? layers.classify_cpu_s / layers.classify_s : 0.0);
  r.Set("dp.detections", static_cast<double>(layers.detections));
  r.Set("dp.adjudicate_s", layers.adjudicate_s);
  r.Set("dp.eq21_checks", static_cast<double>(layers.eq21_checks));
  r.Set("dp.eq21_rollback_frac",
        layers.eq21_checks == 0 ? 0.0
                                : static_cast<double>(layers.eq21_rolled_back) /
                                      static_cast<double>(layers.eq21_checks));
  r.Set("kb.records_rolled_back", static_cast<double>(layers.records_rolled_back));
  r.Set("dp.rounds", static_cast<double>(layers.rounds));
  r.Set("serve.compile_s", layers.compile_s);
  r.Set("serve.image_bytes", static_cast<double>(image.size()));
  r.Set("serve.swap_ms", poll_ms);
  r.Set("freshness_max_s", traced_wall_s + publish_s);
  r.Set("serve.engine_us_p50", engine_p50);
  r.Set("serve.engine_us_p99", engine_p99);
  r.Set("serve.cache_hit_rate", hit_rate);
  r.Set("batch.queue_wait_us_p99", waits.Quantile(0.99) * 1e-3);
  r.Set("batch.size_mean", sizes.Mean());
  r.Set("net.backpressure_pauses",
        static_cast<double>(server.server().counters().backpressure_pauses - pauses_before));
  r.Set("net.shed", static_cast<double>(shed.Take()));
  r.Set("loadgen.late_us_p99", socket_reads.late_us.tail);
  r.Set("loadgen.invalid_frac",
        static_cast<double>(invalid_passes) / static_cast<double>(read_passes));
  r.Set("loadgen.p99_us", socket_reads.latency_us.tail);
  r.Set("failed_frac", ctx->attempted == 0 ? 0.0
                                           : static_cast<double>(ctx->failed) /
                                                 static_cast<double>(ctx->attempted));
  r.Set("unattributed_s", traced_wall_s - attributed);
  r.Set("trace_overhead_s", traced_wall_s - reference.run_s);
  for (const char* name : kNotMeasured) r.SetNotMeasured(name);
  return 0;
}

}  // namespace perfbench
