// stream-live: the corpus arrives in epochs through a StreamPipeline with a
// rebuild cadence, publishing into a directory a SnapshotManager behind a
// NetServer watches, while a light open-loop reader queries the server.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include "eval/metrics.h"
#include "obs/trace.h"
#include "stream/stream.h"
#include "workloads.h"

namespace perfbench {

using namespace semdrift;

namespace {

constexpr double kStreamScale = 0.034;
constexpr int kEpochs = 4;
constexpr int kRebuildEvery = 2;
constexpr int kWatchPollMs = 5;
constexpr double kVisibleDeadlineS = 30.0;
/// Largest share of one-second reader rungs that may be invalid (generator
/// behind) before the whole run counts as invalid.
constexpr double kMaxInvalidRungFrac = 0.25;

/// Sums of the program's own spans (recorded with the trace recorder on)
/// that StreamPipeline's epochs leave behind.
struct SpanTotals {
  double extract_s = 0, warm_s = 0, collect_s = 0;
  uint64_t rounds = 0, detections = 0;
};

SpanTotals SumSpans(const std::vector<TraceSpan>& spans) {
  SpanTotals totals;
  for (const TraceSpan& span : spans) {
    const double s = static_cast<double>(span.dur_ns) * 1e-9;
    if (span.name == "extract.iteration") totals.extract_s += s;
    if (span.name == "warm.batch") totals.warm_s += s;
    if (span.name == "collect.batch") totals.collect_s += s;
    if (span.name != "clean.round") continue;
    ++totals.rounds;
    for (const auto& [key, value] : span.tags) {
      if (key == "detections") totals.detections += std::stoull(value);
    }
  }
  return totals;
}

/// Metrics stream-live does not measure: work inside StreamPipeline that
/// the program records no counter or span for, and the request layers only
/// the serve workloads drive.
constexpr const char* kNotMeasured[] = {
    // Inside StreamPipeline, unrecorded.
    "mutex.build_s", "dp.seeds_s", "dp.labeled_rows", "ml.pool_build_s", "ml.kpca_fit_s",
    "ml.kpca_project_s", "ml.manifold_s", "ml.task_build_s", "ml.solve_s",
    "ml.solve_iterations", "ml.kpca_components", "ml.pool_rows", "ml.tasks",
    "dp.classify_s", "dp.classify_cpu_ratio", "dp.adjudicate_s", "dp.eq21_checks",
    "dp.eq21_rollback_frac",
    // Driven only by serve-*.
    "serve.engine_us_p50", "serve.engine_us_p99", "serve.cache_hit_rate",
    "serve.batcher_us_p50", "serve.batcher_us_p99", "net.roundtrip_us_p50",
    "net.closed_loop_s", "loadgen.max_ok_qps",
};

struct StreamOutcome {
  double wall_s = 0.0;
  std::vector<double> freshness_s;
  /// Per-epoch wall of RunEpoch and of waiting for the swap afterwards.
  double incremental_s = 0.0;
  double rebuild_s = 0.0;
  double visible_wait_s = 0.0;
  uint64_t dirty_concepts = 0;
  uint64_t records_rolled_back = 0;
  uint64_t epochs_ok = 0;
  uint64_t epochs_failed = 0;
  std::vector<double> reader_latency_us;
  std::vector<double> reader_late_us;
  uint64_t reader_sent = 0;
  uint64_t reader_failed = 0;
  /// One-second reader rungs whose generator fell behind (starved by the
  /// epochs beside it): their latencies are not reported, and the run fails
  /// when they are more than kMaxInvalidRungFrac of all rungs.
  uint64_t reader_invalid = 0;
  uint64_t reader_valid = 0;
  double InvalidFrac() const {
    const uint64_t rungs = reader_invalid + reader_valid;
    return rungs == 0 ? 1.0 : static_cast<double>(reader_invalid) / static_cast<double>(rungs);
  }
  std::string final_image;
  double precision = 0.0;
  uint64_t publish_bytes = 0;
  uint64_t backpressure_pauses = 0;
};

/// (concept, member) names over the whole world: the reader's key space,
/// so early epochs also see NOT_FOUND answers for pairs not extracted yet.
std::vector<std::pair<std::string, std::string>> WorldPairs(const World& world) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (size_t c = 0; c < world.num_concepts(); ++c) {
    const ConceptId id(static_cast<uint32_t>(c));
    for (InstanceId e : world.Members(id)) {
      pairs.emplace_back(world.ConceptName(id), world.InstanceName(e));
    }
  }
  return pairs;
}

StreamOutcome RunStreamOnce(RunContext* ctx, const Experiment& experiment,
                            const std::vector<std::vector<Sentence>>& epochs,
                            const RequestSet& reads) {
  StreamOutcome out;
  const std::string pub = ctx->work_dir + "/pub";
  const std::string sock = ctx->work_dir + "/stream.sock";
  if (Status s = ResetDir(pub); !s.ok()) {
    ctx->Check(false, s.ToString());
    return out;
  }
  StreamOptions options;
  options.extractor = experiment.config().extractor;
  options.full_rebuild_every = kRebuildEvery;
  options.publish_dir = pub;
  StreamPipeline stream(&experiment.world(), options);
  LiveServer server(pub, sock);

  std::atomic<bool> stop_reader{false};
  std::thread reader;
  auto start_reader = [&] {
    reader = std::thread([&] {
      uint64_t offset = 0;
      while (!stop_reader.load()) {
        OpenLoopOptions o;
        o.endpoint = server.endpoint();
        o.rate = kReadQps;
        o.seconds = 1.0;
        o.offset = offset;
        o.limit_us = 1e9;  // No rung here; latency is only reported.
        o.late_limit_us = kReadLimitUs;
        o.keep_samples = true;
        OpenLoopResult r = RunOpenLoop(o, reads);
        offset += r.sent;
        out.reader_sent += RequestsFor(o.rate, o.seconds);
        out.reader_failed += r.failed;
        if (r.behind) {
          ++out.reader_invalid;
          continue;
        }
        ++out.reader_valid;
        out.reader_latency_us.insert(out.reader_latency_us.end(),
                                     r.latency_samples.begin(), r.latency_samples.end());
        out.reader_late_us.insert(out.reader_late_us.end(), r.late_samples.begin(),
                                  r.late_samples.end());
      }
    });
  };

  const int64_t start = NowNs();
  for (int k = 0; k < kEpochs; ++k) {
    std::vector<Sentence> delta = epochs[k];
    const int64_t epoch_start = NowNs();
    Result<StreamEpochStats> stats = stream.RunEpoch(std::move(delta), k + 1 == kEpochs);
    const int64_t epoch_end = NowNs();
    if (!stats.ok()) {
      ++out.epochs_failed;
      ctx->Check(false, "epoch " + std::to_string(k + 1) + ": " + stats.status().ToString());
      break;
    }
    ++out.epochs_ok;
    const double epoch_s = static_cast<double>(epoch_end - epoch_start) * 1e-9;
    (stats->full_rebuild ? out.rebuild_s : out.incremental_s) += epoch_s;
    out.dirty_concepts += stats->dirty_concepts;
    out.records_rolled_back += stats->records_rolled_back;
    if (k == 0) {
      if (Status started = server.Start(kWatchPollMs); !started.ok()) {
        ctx->Check(false, "server start: " + started.ToString());
        break;
      }
      start_reader();
    }
    const int64_t visible =
        WaitForGeneration(server.endpoint(), stats->generation, kVisibleDeadlineS);
    if (visible == 0) {
      ctx->Check(false, "generation " + std::to_string(stats->generation) +
                            " never became visible");
      break;
    }
    out.visible_wait_s += static_cast<double>(visible - epoch_end) * 1e-9;
    out.freshness_s.push_back(static_cast<double>(visible - epoch_start) * 1e-9);
  }
  out.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  stop_reader.store(true);
  if (reader.joinable()) reader.join();
  out.backpressure_pauses = server.server().counters().backpressure_pauses;

  Result<std::string> image = stream.BuildImage();
  if (image.ok()) out.final_image = std::move(*image);
  out.precision = LivePairPrecision(experiment.truth(), stream.kb(), experiment.AllConcepts());
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(pub, ec)) {
    if (entry.is_regular_file(ec)) out.publish_bytes += entry.file_size(ec);
  }
  return out;
}

/// Checks and counts shared by the traced and untraced runs.
void Account(RunContext* ctx, const StreamOutcome& out, const std::string& batch_image) {
  ctx->attempted += kEpochs + out.reader_sent + out.freshness_s.size();
  ctx->failed += (kEpochs - out.epochs_ok) + out.reader_failed;
  ctx->Check(out.epochs_ok == static_cast<uint64_t>(kEpochs), "not every epoch ran");
  ctx->Check(out.reader_failed == 0, "reader got ERR/OVERLOADED or lost its connection");
  ctx->Check(out.InvalidFrac() <= kMaxInvalidRungFrac,
             "reader generator fell behind in " + std::to_string(out.reader_invalid) + " of " +
                 std::to_string(out.reader_invalid + out.reader_valid) +
                 " rungs (run invalid)");
  ctx->Check(!out.final_image.empty() && out.final_image == batch_image,
             "final-epoch image differs from the batch-run image of the same seed");
}

}  // namespace

int RunStreamWorkload(RunContext* ctx) {
  std::unique_ptr<Experiment> experiment;
  std::vector<std::vector<Sentence>> epochs;
  const double setup_s = MedianSetup(kSetupRepeats, [&] {
    experiment = BuildExperiment(kStreamScale, ctx->seed);
    const std::vector<Sentence>& all = experiment->corpus().sentences.sentences();
    epochs.assign(kEpochs, {});
    for (int k = 0; k < kEpochs; ++k) {
      const size_t begin = all.size() * static_cast<size_t>(k) / kEpochs;
      const size_t end = all.size() * static_cast<size_t>(k + 1) / kEpochs;
      epochs[k].assign(all.begin() + static_cast<long>(begin),
                       all.begin() + static_cast<long>(end));
    }
  });
  ctx->Param("scale", kStreamScale);
  ctx->Param("sentences", static_cast<double>(experiment->corpus().sentences.size()));
  ctx->Param("epochs", kEpochs);
  ctx->Param("full_rebuild_every", kRebuildEvery);
  ctx->Param("watch_poll_ms", kWatchPollMs);
  ctx->Param("reader_qps", kReadQps);

  RequestSet reads;
  reads.lines = MakeRequestLines(WorldPairs(experiment->world()), KeyDist::kUniform,
                                 ctx->seed ^ 0x7eadULL, 20000);
  const std::string batch_image = RunBatchPipeline(*experiment).image;

  if (!ctx->traced) {
    StreamOutcome out = RunStreamOnce(ctx, *experiment, epochs, reads);
    Account(ctx, out, batch_image);
    const Tail reader = Summarize(out.reader_latency_us);
    ctx->Param("stream_s", out.wall_s);
    ctx->Param("reader_invalid_rungs", static_cast<double>(out.reader_invalid));
    ctx->Param("reader_rungs", static_cast<double>(out.reader_invalid + out.reader_valid));
    ctx->Param("reader_samples", static_cast<double>(reader.n));
    ctx->Param("reader_tail_quantile", reader.tail_q);
    ctx->Param("reader_p50_us", reader.p50);
    ctx->Param("reader_tail_us", reader.tail);
    ctx->Param("reader_window_requests", static_cast<double>(kReadWindow));
    Report& r = ctx->report;
    r.Set("setup_s", setup_s);
    r.Set("freshness_s", Mean(out.freshness_s));
    r.Set("p50_us", MedianWindowQuantile(out.reader_latency_us, kReadWindow, 0.5));
    r.Set("precision", out.precision);
    r.Set("peak_rss_mb", PeakRssMb());
    return 0;
  }

  StreamOutcome untraced = RunStreamOnce(ctx, *experiment, epochs, reads);
  Account(ctx, untraced, batch_image);
  HistogramWindow train_ns("train.ns"), publish_ms("stream.publish_ms"),
      swap_ns("serve.swap.ns"), queue_wait("batch.queue_wait_ns"), batch_size("batch.size"),
      warm_ns("warm.concept_ns"), collect_ns("collect.concept_ns");
  CounterWindow train_calls("train.calls"), iterations("extract.iterations"),
      extractions("extract.extractions"), shed("batch.shed"),
      collect_rows("collect.instances");
  GlobalTrace().Clear();
  GlobalTrace().Enable(true);
  StreamOutcome out = RunStreamOnce(ctx, *experiment, epochs, reads);
  GlobalTrace().Enable(false);
  Account(ctx, out, batch_image);
  ctx->Check(GlobalTrace().spans_dropped() == 0, "trace recorder dropped spans");
  const SpanTotals spans = SumSpans(GlobalTrace().Snapshot());

  const HistogramWindow::Delta train = train_ns.Take();
  const HistogramWindow::Delta publish = publish_ms.Take();
  const HistogramWindow::Delta swaps = swap_ns.Take();
  const HistogramWindow::Delta waits = queue_wait.Take();
  const HistogramWindow::Delta sizes = batch_size.Take();
  const Tail late = Summarize(out.reader_late_us);
  Report& r = ctx->report;
  r.Set("traced_wall_s", out.wall_s);
  r.Set("extract.run_s", spans.extract_s);
  r.Set("extract.iterations", static_cast<double>(iterations.Take()));
  r.Set("extract.extractions", static_cast<double>(extractions.Take()));
  // Wall time from the warm.batch / collect.batch spans; the CPU ratio is
  // the workers' summed per-concept time over that wall time.
  r.Set("rank.warm_s", spans.warm_s);
  r.Set("rank.warm_cpu_ratio", spans.warm_s > 0 ? warm_ns.Take().sum * 1e-9 / spans.warm_s : 0.0);
  r.Set("dp.collect_s", spans.collect_s);
  r.Set("dp.collect_cpu_ratio",
        spans.collect_s > 0 ? collect_ns.Take().sum * 1e-9 / spans.collect_s : 0.0);
  r.Set("dp.collect_rows", static_cast<double>(collect_rows.Take()));
  r.Set("dp.train_s", train.sum * 1e-9);
  r.Set("dp.train_calls", static_cast<double>(train_calls.Take()));
  r.Set("dp.detections", static_cast<double>(spans.detections));
  r.Set("kb.records_rolled_back", static_cast<double>(out.records_rolled_back));
  r.Set("dp.rounds", static_cast<double>(spans.rounds));
  r.Set("serve.compile_s", publish.sum * 1e-3);
  r.Set("serve.image_bytes", static_cast<double>(out.final_image.size()));
  r.Set("stream.incremental_epoch_s", out.incremental_s);
  r.Set("stream.rebuild_epoch_s", out.rebuild_s);
  r.Set("stream.dirty_concepts", static_cast<double>(out.dirty_concepts));
  r.Set("stream.publish_bytes", static_cast<double>(out.publish_bytes));
  r.Set("serve.swap_ms", swaps.Mean() * 1e-6);
  r.Set("freshness_max_s", out.freshness_s.empty()
                               ? 0.0
                               : *std::max_element(out.freshness_s.begin(),
                                                   out.freshness_s.end()));
  r.Set("batch.queue_wait_us_p99", waits.Quantile(0.99) * 1e-3);
  r.Set("batch.size_mean", sizes.Mean());
  r.Set("net.backpressure_pauses", static_cast<double>(out.backpressure_pauses));
  r.Set("net.shed", static_cast<double>(shed.Take()));
  r.Set("loadgen.late_us_p99", late.tail);
  r.Set("loadgen.invalid_frac", out.InvalidFrac());
  r.Set("loadgen.p99_us", Summarize(out.reader_latency_us).tail);
  r.Set("failed_frac", ctx->attempted == 0 ? 0.0
                                           : static_cast<double>(ctx->failed) /
                                                 static_cast<double>(ctx->attempted));
  // Epoch time outside extraction, warm-up, collect, training,
  // compile/publish and the swap wait: mutex build, seed labels, classify,
  // Eq. 21, replay/validate.
  r.Set("unattributed_s", out.wall_s - spans.extract_s - spans.warm_s - spans.collect_s -
                              train.sum * 1e-9 - publish.sum * 1e-3 - out.visible_wait_s);
  r.Set("trace_overhead_s", out.wall_s - untraced.wall_s);
  for (const char* name : kNotMeasured) r.SetNotMeasured(name);
  return 0;
}

}  // namespace perfbench
