// semdrift — command-line driver for the library.
//
//   semdrift generate --scale 0.25 --seed 2014 --world w.tsv --corpus c.tsv
//       Generate a ground-truth world + Hearst corpus and save both.
//   semdrift run --world w.tsv --corpus c.tsv --out taxonomy.tsv
//                [--snapshot-out s.bin]
//                [--snapshot-delta-out d.bin --snapshot-delta-base s.bin
//                 [--snapshot-delta-base-gen N]] [--no-clean]
//                [--lenient] [--checkpoint-dir D [--resume] [--validate]
//                [--keep-checkpoints N]] [--supervise] [--health-report]
//                [--stage-deadline-ms N] [--max-retries N] [--quarantine on|off]
//                [--fault-rate R --fault-seed N --fault-kinds K --fault-stages S]
//                [--trace-out T.jsonl] [--trace-chrome T.json] [--metrics-out M.json]
//       Load world+corpus, run iterative extraction (and DP cleaning unless
//       --no-clean), report quality against ground truth, export the
//       taxonomy. With --checkpoint-dir the run snapshots after every
//       iteration and --resume continues from the latest valid snapshot.
//       Every clean runs its stages (warm, collect, train, score) under
//       stage guards; without --supervise the policy is pass-through (no
//       deadline, no retries, a failing stage ends the run, a detector
//       that trains nothing falls back to an ad-hoc one). --supervise
//       (implied by --health-report or --fault-rate > 0) chooses the
//       policy instead: per-concept deadlines, bounded retries and
//       quarantine, per-round clean checkpoints, and --health-report
//       printing the per-concept outcome table. The --fault-* flags enable
//       seeded compute-fault injection (kinds: throw,stall,nan; stages:
//       warm,collect,train,score) for robustness drills. --trace-out /
//       --trace-chrome enable span recording and export the trace as JSONL /
//       Chrome trace_event JSON (loadable in chrome://tracing);
//       --metrics-out dumps the process metrics registry. Tracing never
//       changes any output byte: spans record only from serial driver
//       contexts, so checkpoints, taxonomy and snapshot are bit-identical
//       with tracing on or off.
//   semdrift stream --world w.tsv --corpus c.tsv --epochs N
//                   [--full-rebuild-every K] [--no-final-rebuild]
//                   [--rebuild-dirty-frac F] [--publish-dir D]
//                   [--epoch-snapshots D2] [--max-iterations N] [--max-rounds N]
//                   [--epoch-sleep-ms N] [--metrics-out M.json]
//       Streaming incremental extraction: replay the corpus as N timestamped
//       epochs. Each epoch ingests its sentence delta, continues iterative
//       extraction, re-runs DP detection/cleaning scoped to the dirty concept
//       set (concepts the new records touched, closed over shared live
//       instances), revalidates through the replay path, and — with
//       --publish-dir — publishes the result for a live `serve --publish-dir`
//       to hot-swap: full snap-<gen>.bin on rebuild epochs, CRC-bound
//       delta-<gen>.bin otherwise. Epoch k is a full rebuild when
//       --full-rebuild-every divides k, when the dirty set exceeds
//       --rebuild-dirty-frac of the world, and always on the final epoch
//       unless --no-final-rebuild: a rebuild re-runs the whole batch pipeline
//       over the cumulative corpus, so the stream's final state is
//       byte-identical to a one-shot `run` over the same files.
//       --epoch-snapshots writes every epoch's full image as epoch-<k>.bin
//       (the per-epoch reference the soak test diffs live answers against);
//       --epoch-sleep-ms paces publishes so a watching server observes every
//       generation.
//   semdrift serve --snapshot s.bin | --publish-dir D [--poll-ms N]
//                  [--mmap] [--cache N] [--cache-shards N]
//                  [--max-batch N] [--max-wait-ms N] [--deadline-ms N]
//                  [--deadline-budget-ms N] [--stats-interval-ms N]
//                  [--listen tcp:host:port|unix:/path]
//       Load a serving snapshot and answer line-protocol queries on
//       stdin/stdout (instances-of, concepts-of, is-a, drift-score, mutex,
//       stats, metrics; `quit` exits). Requests are coalesced into batches
//       and executed on the thread pool; responses come back in request
//       order. With --publish-dir the server instead watches a publish
//       directory (snap-<gen>.bin full images, delta-<gen>.bin deltas) and
//       hot-swaps generations atomically: in-flight queries finish on the
//       old generation, corrupt publishes are quarantined (renamed
//       *.quarantined) and serving rolls back to the last good generation.
//       --deadline-budget-ms > 0 enables admission control: when the p99
//       queue wait crosses the budget, low-priority requests are refused
//       with an OVERLOADED response instead of queueing to death.
//       --stats-interval-ms > 0 prints a serving-stats snapshot to stderr
//       every N milliseconds. --mmap opens the snapshot zero-copy with
//       per-section CRC validation deferred to first touch (fast cold
//       start; corrupt sections fail only the verbs that touch them).
//       --listen serves the same protocol on a TCP or unix socket instead
//       of stdin/stdout (epoll front-end, pipelining with responses in
//       request order). Both front-ends submit through the same router:
//       one batcher over one engine (the manager's per-generation engine
//       with --publish-dir). SIGINT/SIGTERM shut the socket server down
//       cleanly; a --listen unix path holding anything but a socket is
//       refused, never deleted.
//   semdrift query (--snapshot s.bin [--mmap] | --connect EP) <verb> <args...>
//       One-shot: answer a single query and exit. --snapshot opens the
//       file directly; --connect round-trips the query to a serve --listen
//       endpoint (same address grammar). Exit codes form the
//       scripting contract shared with serve's line protocol: 0 = OK,
//       1 = ERR, 2 = usage, 3 = NOT_FOUND (miss), 4 = OVERLOADED (shed by
//       admission control). Each shell
//       argument becomes one protocol field, so multi-word names need
//       quoting, not tabs.
//   semdrift snapshot-verify <base> [delta...]
//       Check snapshot framing (magic, version, CRCs) and deep structure
//       (CSR monotonicity, id bounds, rank permutations, string-table
//       bounds). With delta files, verifies the whole publish chain: each
//       delta must load strictly, bind to the previous image's CRC32, and
//       materialize an image that passes the same deep validation. Exits
//       non-zero on any corruption.
//   semdrift fuzz-load [--count 200] [--seed 2014] [--scale 0.05] [--dir D]
//       Fault-injection sweep: corrupt world/corpus/checkpoint/snapshot/
//       delta files in seeded, targeted ways and prove every loader
//       survives — each corruption must yield a clean Status (strict) or a
//       fully-accounted LoadReport (lenient), never a crash or silent
//       half-load. Delta corruptions that slip past the loader must still
//       materialize into a snapshot that passes deep validation.
//
// Every subcommand is deterministic in --seed. Unknown flags, missing flag
// values and non-numeric values for numeric flags exit non-zero.

#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <iostream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "corpus/serialization.h"
#include "dp/cleaner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "extract/checkpoint.h"
#include "extract/extractor.h"
#include "extract/hearst_parser.h"
#include "net/net_client.h"
#include "net/router.h"
#include "net/server.h"
#include "scenario/grammar.h"
#include "scenario/hunt.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "serve/batcher.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/snapshot_delta.h"
#include "serve/snapshot_manager.h"
#include "stream/stream.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

using namespace semdrift;

namespace {

/// Command-line flag parser. Each subcommand declares which flags take a
/// value and which are boolean, so `--no-clean` can never shift a later
/// `--name value` pair out of alignment, and an unknown or malformed flag
/// is a hard error instead of a note on stderr.
class Flags {
 public:
  Flags(int argc, char** argv, int first, std::set<std::string> valued,
        std::set<std::string> boolean) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (!StartsWith(arg, "--")) {
        Fail("unexpected argument: " + arg);
        return;
      }
      std::string name = arg.substr(2);
      if (boolean.count(name) > 0) {
        present_.insert(name);
      } else if (valued.count(name) > 0) {
        if (i + 1 >= argc) {
          Fail("missing value for --" + name);
          return;
        }
        values_[name] = argv[++i];
      } else {
        Fail("unknown flag --" + name);
        return;
      }
    }
  }

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  std::string Get(const std::string& name, const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  /// Numeric accessors refuse garbage: `--scale abc` is a fatal error, not
  /// a silent 0.0.
  double GetDouble(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    double value = 0.0;
    if (!ParseDouble(it->second, &value)) DieBadValue(name, it->second);
    return value;
  }
  uint64_t GetUint(const std::string& name, uint64_t fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    uint64_t value = 0;
    if (!ParseUint64(it->second, &value)) DieBadValue(name, it->second);
    return value;
  }
  bool Has(const std::string& name) const { return present_.count(name) > 0; }

 private:
  void Fail(const std::string& why) { error_ = why; }
  [[noreturn]] static void DieBadValue(const std::string& name,
                                       const std::string& value) {
    std::fprintf(stderr, "invalid value for --%s: '%s'\n", name.c_str(),
                 value.c_str());
    std::exit(2);
  }

  std::unordered_map<std::string, std::string> values_;
  std::set<std::string> present_;
  std::string error_;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  semdrift generate --scale S --seed N --world W --corpus C\n"
      "  semdrift run --world W --corpus C --out T.tsv [--snapshot-out S]\n"
      "               [--snapshot-delta-out D --snapshot-delta-base S\n"
      "               [--snapshot-delta-base-gen N]]\n"
      "               [--no-clean] [--lenient]\n"
      "               [--checkpoint-dir D [--resume] [--validate]\n"
      "               [--keep-checkpoints N]] [--supervise] [--health-report]\n"
      "               [--stage-deadline-ms N] [--max-retries N]\n"
      "               [--quarantine on|off] [--fault-rate R] [--fault-seed N]\n"
      "               [--fault-kinds throw,stall,nan]\n"
      "               [--fault-stages warm,collect,train,score]\n"
      "               [--trace-out T.jsonl] [--trace-chrome T.json]\n"
      "               [--metrics-out M.json]\n"
      "               (--supervise sets the stage-guard policy, fault injection,\n"
      "               the health report and per-round clean checkpoints)\n"
      "  semdrift stream --world W --corpus C --epochs N\n"
      "               [--full-rebuild-every K] [--no-final-rebuild]\n"
      "               [--rebuild-dirty-frac F] [--publish-dir D]\n"
      "               [--epoch-snapshots D2] [--max-iterations N]\n"
      "               [--max-rounds N] [--epoch-sleep-ms N]\n"
      "               [--metrics-out M.json]\n"
      "  semdrift parse --world W   (sentences on stdin)\n"
      "  semdrift serve --snapshot S | --publish-dir D [--poll-ms N]\n"
      "               [--cache N] [--cache-shards N]\n"
      "               [--max-batch N] [--max-wait-ms N] [--deadline-ms N]\n"
      "               [--deadline-budget-ms N] [--stats-interval-ms N]\n"
      "               [--mmap] [--listen tcp:host:port|unix:/path]\n"
      "  semdrift query --snapshot S <verb> <args...>\n"
      "               (exit: 0 OK, 1 ERR, 2 usage, 3 NOT_FOUND, 4 OVERLOADED)\n"
      "  semdrift snapshot-verify <base> [delta...]\n"
      "  semdrift fuzz-load [--count N] [--seed N] [--scale S] [--dir D]\n"
      "  semdrift scenario-run <file.toml>... [--verbose] [--pin-envelope]\n"
      "               (exit: 0 all pass, 1 violations, 2 usage)\n"
      "  semdrift scenario-hunt [--seed N] [--samples N] [--archetype A]\n"
      "               [--floor F] [--margin M] [--no-shrink]\n"
      "               [--max-shrink-evals N] [--out-dir D]\n"
      "  semdrift scenario-sample --seed N [--archetype A] [--out F]\n"
      "\n"
      "Every subcommand accepts --threads N (default: SEMDRIFT_THREADS env\n"
      "var, then hardware concurrency). Results are identical at any thread\n"
      "count.\n");
  return 2;
}

/// Applies the global --threads control (0 = auto: SEMDRIFT_THREADS env var,
/// then hardware concurrency). Parallel stages are bit-deterministic, so
/// this only changes wall-clock time, never output.
void ApplyThreadsFlag(const Flags& flags) {
  SetGlobalThreadCount(static_cast<int>(flags.GetUint("threads", 0)));
}

/// Prints lenient-load damage so skipped lines are visible, not silent.
void ReportSkips(const char* what, const LoadReport& report) {
  if (report.skipped.empty() && !report.truncated &&
      (!report.checksum_present || report.checksum_ok)) {
    return;
  }
  std::fprintf(stderr, "%s: loaded %zu/%zu lines", what, report.lines_loaded,
               report.lines_seen);
  if (report.truncated) std::fprintf(stderr, ", truncated");
  if (report.checksum_present && !report.checksum_ok) {
    std::fprintf(stderr, ", checksum mismatch");
  }
  std::fprintf(stderr, "\n");
  for (const auto& skip : report.skipped) {
    std::fprintf(stderr, "  line %zu: %s\n", skip.line_number, skip.reason.c_str());
  }
}

int Generate(const Flags& flags) {
  ApplyThreadsFlag(flags);
  ExperimentConfig config = PaperScaleConfig(flags.GetDouble("scale", 0.25));
  config.seed = flags.GetUint("seed", 2014);
  config.corpus.render_text = true;
  auto experiment = Experiment::Build(config);
  std::string world_path = flags.Get("world", "world.tsv");
  std::string corpus_path = flags.Get("corpus", "corpus.tsv");
  Status s = SaveWorld(experiment->world(), world_path);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  s = SaveCorpus(experiment->world(), experiment->corpus(), corpus_path);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("world: %zu concepts, %zu instances -> %s\n",
              experiment->world().num_concepts(), experiment->world().num_instances(),
              world_path.c_str());
  std::printf("corpus: %zu sentences -> %s\n", experiment->corpus().sentences.size(),
              corpus_path.c_str());
  return 0;
}

/// Exports the observability artifacts a successful run asked for
/// (--trace-out / --trace-chrome / --metrics-out), naming each on stdout.
int WriteObsArtifacts(const Flags& flags) {
  std::string trace_out = flags.Get("trace-out", "");
  if (!trace_out.empty()) {
    std::string error;
    if (!GlobalTrace().WriteJsonl(trace_out, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("trace -> %s\n", trace_out.c_str());
  }
  std::string trace_chrome = flags.Get("trace-chrome", "");
  if (!trace_chrome.empty()) {
    std::string error;
    if (!GlobalTrace().WriteChromeTrace(trace_chrome, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("chrome trace -> %s\n", trace_chrome.c_str());
  }
  std::string metrics_out = flags.Get("metrics-out", "");
  if (!metrics_out.empty()) {
    Status s = WriteStringToFile(GlobalMetrics().ToJson() + "\n", metrics_out);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("metrics -> %s\n", metrics_out.c_str());
  }
  return 0;
}

/// Successful runs name every artifact they wrote (taxonomy, checkpoints,
/// snapshot) on stdout so serve/query commands can be chained in scripts.
/// Writing the serving snapshot is part of the run: a KB that fails
/// validation fails the run rather than becoming a corrupt snapshot.
int FinishRun(const Flags& flags, const KnowledgeBase& kb, const World& world,
              size_t num_sentences, const RunHealthReport* health,
              const std::string& taxonomy_path, const std::string& checkpoint_dir) {
  std::printf("taxonomy -> %s\n", taxonomy_path.c_str());
  if (!checkpoint_dir.empty()) {
    std::printf("checkpoints -> %s\n", checkpoint_dir.c_str());
  }
  std::string snapshot_path = flags.Get("snapshot-out", "");
  if (!snapshot_path.empty()) {
    Status s = WriteServingSnapshot(kb, world, num_sentences, health, snapshot_path);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("snapshot -> %s\n", snapshot_path.c_str());
  }
  std::string delta_path = flags.Get("snapshot-delta-out", "");
  if (!delta_path.empty()) {
    std::string base_path = flags.Get("snapshot-delta-base", "");
    if (base_path.empty()) {
      std::fprintf(stderr,
                   "--snapshot-delta-out requires --snapshot-delta-base\n");
      return 2;
    }
    uint64_t base_gen = flags.GetUint("snapshot-delta-base-gen", 1);
    Status s = WriteServingSnapshotDelta(kb, world, num_sentences, health,
                                         base_path, base_gen, delta_path);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("snapshot delta -> %s (generation %llu)\n", delta_path.c_str(),
                static_cast<unsigned long long>(base_gen + 1));
  }
  return WriteObsArtifacts(flags);
}

int Run(const Flags& flags) {
  ApplyThreadsFlag(flags);
  if (!flags.Get("trace-out", "").empty() ||
      !flags.Get("trace-chrome", "").empty()) {
    GlobalTrace().Enable(true);
  }
  LoadOptions load_options;
  if (flags.Has("lenient")) load_options.mode = LoadOptions::Mode::kLenient;
  LoadReport world_report;
  auto world = LoadWorld(flags.Get("world", "world.tsv"), load_options, &world_report);
  if (!world.ok()) {
    std::fprintf(stderr, "%s\n", world.status().ToString().c_str());
    return 1;
  }
  ReportSkips("world", world_report);
  LoadReport corpus_report;
  auto corpus = LoadCorpus(*world, flags.Get("corpus", "corpus.tsv"), load_options,
                           &corpus_report);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  ReportSkips("corpus", corpus_report);

  std::string checkpoint_dir = flags.Get("checkpoint-dir", "");
  if (checkpoint_dir.empty() && flags.Has("resume")) {
    std::fprintf(stderr, "--resume requires --checkpoint-dir\n");
    return 2;
  }

  GroundTruth truth(&*world);
  std::vector<ConceptId> scope;
  for (size_t ci = 0; ci < world->num_concepts(); ++ci) {
    scope.push_back(ConceptId(static_cast<uint32_t>(ci)));
  }

  double fault_rate = flags.GetDouble("fault-rate", 0.0);
  bool supervise =
      flags.Has("supervise") || flags.Has("health-report") || fault_rate > 0.0;
  if (supervise) {
    SupervisedRunConfig config;
    config.supervisor.stage_deadline_ms =
        static_cast<int>(flags.GetUint("stage-deadline-ms", 30000));
    config.supervisor.max_retries =
        static_cast<int>(flags.GetUint("max-retries", 2));
    std::string quarantine = flags.Get("quarantine", "on");
    if (quarantine == "on") {
      config.supervisor.quarantine = true;
    } else if (quarantine == "off") {
      config.supervisor.quarantine = false;
    } else {
      std::fprintf(stderr, "invalid value for --quarantine: '%s' (expected on|off)\n",
                   quarantine.c_str());
      return 2;
    }
    config.faults.rate = fault_rate;
    config.faults.seed = flags.GetUint("fault-seed", 2014);
    std::string kinds = flags.Get("fault-kinds", "");
    if (!kinds.empty()) {
      config.faults.kinds.clear();
      for (const std::string& name : Split(kinds, ',')) {
        ComputeFaultKind kind;
        if (!ParseComputeFaultKind(name, &kind)) {
          std::fprintf(stderr,
                       "invalid value for --fault-kinds: '%s' (expected "
                       "throw|stall|nan)\n",
                       name.c_str());
          return 2;
        }
        config.faults.kinds.push_back(kind);
      }
    }
    std::string stages = flags.Get("fault-stages", "");
    if (!stages.empty()) {
      config.faults.stages.clear();
      for (const std::string& name : Split(stages, ',')) {
        PipelineStage stage;
        if (!ParsePipelineStage(name, &stage)) {
          std::fprintf(stderr,
                       "invalid value for --fault-stages: '%s' (expected "
                       "warm|collect|train|score)\n",
                       name.c_str());
          return 2;
        }
        config.faults.stages.push_back(stage);
      }
    }
    config.checkpoint.dir = checkpoint_dir;
    config.checkpoint.resume = flags.Has("resume");
    config.checkpoint.validate_each_iteration = flags.Has("validate");
    config.checkpoint.keep_last =
        static_cast<int>(flags.GetUint("keep-checkpoints", 0));
    config.clean = !flags.Has("no-clean");

    const World* world_ptr = &*world;
    IterativeExtractor extractor(&corpus->sentences, ExtractorOptions{});
    auto run = RunSupervisedPipeline(
        &extractor, &corpus->sentences,
        [world_ptr](const IsAPair& pair) {
          return world_ptr->IsVerified(pair.concept_id, pair.instance);
        },
        world->num_concepts(), corpus->sentences.size(), scope, config);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 1;
    }
    std::printf("supervised run: %zu iterations, %zu live pairs (precision %.3f)\n",
                run->stats.size(), run->kb.num_live_pairs(),
                LivePairPrecision(truth, run->kb, scope));
    if (config.clean) {
      std::printf("cleaned: %d rounds, %zu DPs, %zu -> %zu pairs\n",
                  run->cleaning.rounds,
                  run->cleaning.intentional_dps.size() +
                      run->cleaning.accidental_dps.size(),
                  run->cleaning.live_pairs_before, run->cleaning.live_pairs_after);
    }
    const RunHealthReport& health = run->health;
    std::printf("health: %zu quarantined, %zu degraded, %zu retried, %zu dropped "
                "instances%s\n",
                health.CountWithOutcome(ConceptOutcome::kQuarantined),
                health.CountWithOutcome(ConceptOutcome::kDegraded),
                health.CountWithOutcome(ConceptOutcome::kRetried),
                health.num_drops(),
                health.detector_fallback() ? ", detector fell back" : "");
    if (flags.Has("health-report")) {
      std::printf("%s", health.ToTable().c_str());
    }
    std::string out = flags.Get("out", "taxonomy.tsv");
    Status s = ExportTaxonomyTsv(run->kb, *world, out);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    return FinishRun(flags, run->kb, *world, corpus->sentences.size(),
                     &run->health, out, checkpoint_dir);
  }

  KnowledgeBase kb;
  IterativeExtractor extractor(&corpus->sentences, ExtractorOptions{});
  std::vector<IterationStats> iterations;
  if (!checkpoint_dir.empty()) {
    CheckpointConfig checkpoint;
    checkpoint.dir = checkpoint_dir;
    checkpoint.resume = flags.Has("resume");
    checkpoint.validate_each_iteration = flags.Has("validate");
    checkpoint.keep_last = static_cast<int>(flags.GetUint("keep-checkpoints", 0));
    checkpoint.num_concepts = world->num_concepts();
    checkpoint.num_sentences = corpus->sentences.size();
    auto run = RunWithCheckpoints(&extractor, &kb, checkpoint);
    if (!run.ok()) {
      std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
      return 1;
    }
    iterations = std::move(*run);
  } else {
    iterations = extractor.Run(&kb);
  }
  std::printf("extracted %zu pairs in %zu iterations (precision %.3f)\n",
              kb.num_live_pairs(), iterations.size(),
              LivePairPrecision(truth, kb, scope));

  if (!flags.Has("no-clean")) {
    CleanerOptions options;
    const World* world_ptr = &*world;
    DpCleaner cleaner(
        &corpus->sentences,
        [world_ptr](const IsAPair& pair) {
          return world_ptr->IsVerified(pair.concept_id, pair.instance);
        },
        world->num_concepts(), options);
    CleaningReport report = cleaner.Clean(&kb, scope);
    std::printf("cleaned: %d rounds, %zu DPs, %zu -> %zu pairs (precision %.3f)\n",
                report.rounds,
                report.intentional_dps.size() + report.accidental_dps.size(),
                report.live_pairs_before, report.live_pairs_after,
                LivePairPrecision(truth, kb, scope));
  }

  std::string out = flags.Get("out", "taxonomy.tsv");
  Status s = ExportTaxonomyTsv(kb, *world, out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  return FinishRun(flags, kb, *world, corpus->sentences.size(),
                   /*health=*/nullptr, out, checkpoint_dir);
}

/// Streaming incremental extraction (src/stream/): replays the corpus as
/// `--epochs` timestamped deltas through a StreamPipeline, publishing every
/// epoch into `--publish-dir` for a live `serve --publish-dir` to hot-swap.
int StreamCmd(const Flags& flags) {
  ApplyThreadsFlag(flags);
  LoadOptions load_options;
  if (flags.Has("lenient")) load_options.mode = LoadOptions::Mode::kLenient;
  LoadReport world_report;
  auto world = LoadWorld(flags.Get("world", "world.tsv"), load_options, &world_report);
  if (!world.ok()) {
    std::fprintf(stderr, "%s\n", world.status().ToString().c_str());
    return 1;
  }
  ReportSkips("world", world_report);
  LoadReport corpus_report;
  auto corpus = LoadCorpus(*world, flags.Get("corpus", "corpus.tsv"), load_options,
                           &corpus_report);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  ReportSkips("corpus", corpus_report);

  int epochs = static_cast<int>(flags.GetUint("epochs", 4));
  if (epochs < 1) {
    std::fprintf(stderr, "--epochs must be >= 1\n");
    return 2;
  }
  StreamOptions options;
  options.extractor.max_iterations =
      static_cast<int>(flags.GetUint("max-iterations", 12));
  options.cleaner.max_rounds = static_cast<int>(flags.GetUint("max-rounds", 6));
  options.full_rebuild_every =
      static_cast<int>(flags.GetUint("full-rebuild-every", 0));
  options.final_full_rebuild = !flags.Has("no-final-rebuild");
  options.rebuild_dirty_frac = flags.GetDouble("rebuild-dirty-frac", 1.0);
  options.publish_dir = flags.Get("publish-dir", "");
  options.epoch_snapshot_dir = flags.Get("epoch-snapshots", "");
  int sleep_ms = static_cast<int>(flags.GetUint("epoch-sleep-ms", 0));

  for (const std::string& dir : {options.publish_dir, options.epoch_snapshot_dir}) {
    if (dir.empty()) continue;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                   ec.message().c_str());
      return 1;
    }
  }

  GroundTruth truth(&*world);
  std::vector<ConceptId> scope;
  for (size_t ci = 0; ci < world->num_concepts(); ++ci) {
    scope.push_back(ConceptId(static_cast<uint32_t>(ci)));
  }

  StreamPipeline pipeline(&*world, options);
  const std::vector<Sentence>& all = corpus->sentences.sentences();
  size_t total = all.size();
  for (int k = 0; k < epochs; ++k) {
    size_t begin = total * static_cast<size_t>(k) / static_cast<size_t>(epochs);
    size_t end = total * static_cast<size_t>(k + 1) / static_cast<size_t>(epochs);
    std::vector<Sentence> delta(all.begin() + begin, all.begin() + end);
    auto stats = pipeline.RunEpoch(std::move(delta), k + 1 == epochs);
    if (!stats.ok()) {
      std::fprintf(stderr, "epoch %d: %s\n", k + 1,
                   stats.status().ToString().c_str());
      return 1;
    }
    std::printf("epoch %d/%d [%s]: +%zu sentences (%zu total), %zu dirty, "
                "%zu extracted, %zu rolled back, %zu pairs",
                stats->epoch, epochs,
                stats->full_rebuild ? (stats->escalated ? "rebuild:escalated"
                                                        : "rebuild")
                                    : "incremental",
                stats->sentences_ingested, stats->corpus_size,
                stats->dirty_concepts, stats->extractions,
                stats->records_rolled_back, stats->live_pairs);
    if (stats->generation > 0) {
      std::printf(", gen %llu (%s)",
                  static_cast<unsigned long long>(stats->generation),
                  stats->published_delta ? "delta" : "full");
    }
    std::printf("\n");
    std::fflush(stdout);
    if (sleep_ms > 0 && k + 1 < epochs) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
  }
  std::printf("stream done: %d epochs, %zu sentences, %zu live pairs "
              "(precision %.3f), generation %llu\n",
              epochs, pipeline.sentences().size(), pipeline.kb().num_live_pairs(),
              LivePairPrecision(truth, pipeline.kb(), scope),
              static_cast<unsigned long long>(pipeline.generation()));
  return WriteObsArtifacts(flags);
}

int Parse(const Flags& flags) {
  ApplyThreadsFlag(flags);
  auto world = LoadWorld(flags.Get("world", "world.tsv"));
  if (!world.ok()) {
    std::fprintf(stderr, "%s\n", world.status().ToString().c_str());
    return 1;
  }
  HearstParser parser(&world->concept_vocab(), world->instance_vocab());
  std::string line;
  while (std::getline(std::cin, line)) {
    auto parsed = parser.Parse(line);
    if (!parsed.has_value()) {
      std::printf("NO-MATCH\t%s\n", line.c_str());
      continue;
    }
    std::printf("MATCH\tconcepts=[");
    for (size_t i = 0; i < parsed->candidate_concepts.size(); ++i) {
      std::printf("%s%s", i ? ", " : "",
                  world->ConceptName(parsed->candidate_concepts[i]).c_str());
    }
    std::printf("]\tinstances=[");
    for (size_t i = 0; i < parsed->candidate_instances.size(); ++i) {
      std::printf("%s%s", i ? ", " : "",
                  parser.instance_lexicon().TermOf(parsed->candidate_instances[i].value)
                      .c_str());
    }
    std::printf("]\n");
  }
  return 0;
}

Result<SnapshotReader> OpenSnapshotOrDie(const std::string& path,
                                         bool use_mmap = false) {
  if (path.empty()) {
    std::fprintf(stderr, "--snapshot is required\n");
    std::exit(2);
  }
  SnapshotOpenOptions options;
  options.source = use_mmap ? SnapshotSource::kMmap : SnapshotSource::kRead;
  return SnapshotReader::Open(path, options);
}

/// Submits one line through the router; the future yields its response.
std::future<std::string> SubmitLine(ShardRouter& router, std::string line,
                                    RequestPriority priority) {
  auto promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> response = promise->get_future();
  router.Submit(std::move(line), priority, [promise](std::string r) {
    promise->set_value(std::move(r));
  });
  return response;
}

/// Prints the router's `stats` line to stderr every `interval_ms` while alive
/// (0: never). Both serve front-ends use it, so the periodic line is exactly
/// what a client's own `stats` request would read. stdout stays pure protocol.
class StatsTicker {
 public:
  StatsTicker(ShardRouter* router, uint64_t interval_ms) {
    if (interval_ms == 0) return;
    thread_ = std::thread([this, router, interval_ms] {
      std::unique_lock<std::mutex> lock(mu_);
      while (!cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                           [this] { return stop_; })) {
        const std::string stats =
            SubmitLine(*router, "stats", RequestPriority::kHigh).get();
        std::fprintf(stderr, "%s\n", stats.c_str());
      }
    });
  }
  ~StatsTicker() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// The stdin front-end: stdin keeps feeding the router while earlier
/// requests execute (that concurrency is what makes batches form), and a
/// printer thread emits responses strictly in request order.
int ServeLoop(ShardRouter& router) {
  std::fprintf(stderr, "reading requests on stdin; ready\n");
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::future<std::string>> pending;
  bool input_done = false;
  std::thread printer([&] {
    for (;;) {
      std::future<std::string> next;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return input_done || !pending.empty(); });
        if (pending.empty()) return;
        next = std::move(pending.front());
        pending.pop_front();
      }
      std::string response = next.get();
      std::fputs(response.c_str(), stdout);
      std::fputc('\n', stdout);
      std::fflush(stdout);
    }
  });
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
    if (line.empty()) continue;
    std::future<std::string> response =
        SubmitLine(router, std::move(line), RequestPriority::kNormal);
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back(std::move(response));
    }
    cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    input_done = true;
  }
  cv.notify_all();
  printer.join();
  return 0;
}

/// Signal-driven shutdown for `serve --listen`: the handler writes one byte
/// into a self-pipe (the only async-signal-safe notification there is), and
/// the main thread blocks on poll() until it arrives.
int g_shutdown_pipe[2] = {-1, -1};

extern "C" void HandleShutdownSignal(int) {
  const char byte = 1;
  // Best-effort: a full pipe already means shutdown is pending.
  [[maybe_unused]] ssize_t n = ::write(g_shutdown_pipe[1], &byte, 1);
}

/// The socket front-end: runs a NetServer over the router until
/// SIGINT/SIGTERM. Prints the resolved endpoint to stderr (port 0 means
/// "pick one", so scripts need the answer).
int RunNetServer(ShardRouter& router, const std::string& listen) {
  NetServerOptions server_options;
  server_options.listen = listen;
  NetServer server(&router, server_options);
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  if (::pipe(g_shutdown_pipe) != 0) {
    std::fprintf(stderr, "pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction sa {};
  sa.sa_handler = HandleShutdownSignal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  std::fprintf(stderr, "listening on %s; ready\n", server.endpoint().c_str());

  pollfd pfd{g_shutdown_pipe[0], POLLIN, 0};
  // Any return but EINTR means the signal arrived or the pipe broke: out.
  while (::poll(&pfd, 1, -1) < 0 && errno == EINTR) {
  }
  server.Stop();
  ::close(g_shutdown_pipe[0]);
  ::close(g_shutdown_pipe[1]);
  g_shutdown_pipe[0] = g_shutdown_pipe[1] = -1;
  return 0;
}

/// `serve`: one setup for both front-ends. The snapshot (or the publish
/// directory's SnapshotManager) is opened once and served through one
/// router; --listen hands the router to the socket server, otherwise stdin
/// feeds it.
int Serve(const Flags& flags) {
  ApplyThreadsFlag(flags);
  RouterOptions router_options;
  router_options.engine.cache_capacity = flags.GetUint("cache", 4096);
  router_options.engine.cache_shards = flags.GetUint("cache-shards", 16);
  router_options.batch.max_batch = flags.GetUint("max-batch", 64);
  router_options.batch.max_wait_ms =
      static_cast<int>(flags.GetUint("max-wait-ms", 1));
  router_options.batch.default_deadline_ms =
      static_cast<int>(flags.GetUint("deadline-ms", 1000));
  router_options.batch.deadline_budget_ms =
      static_cast<int>(flags.GetUint("deadline-budget-ms", 0));
  const uint64_t stats_interval_ms = flags.GetUint("stats-interval-ms", 0);
  const std::string listen = flags.Get("listen", "");
  if (!listen.empty()) {
    // A malformed address is a usage error (exit 2), same as any bad flag
    // value — not a runtime serving failure.
    ListenAddress parsed_listen;
    std::string listen_error;
    if (!ParseListenAddress(listen, &parsed_listen, &listen_error)) {
      std::fprintf(stderr, "--listen: %s\n", listen_error.c_str());
      return 2;
    }
  }

  // Declared before the router so they outlive its shutdown drain, which
  // still resolves engines.
  std::unique_ptr<SnapshotManager> manager;
  std::unique_ptr<SnapshotReader> reader;
  std::unique_ptr<ShardRouter> router;
  const std::string publish_dir = flags.Get("publish-dir", "");
  if (!publish_dir.empty()) {
    // Hot-swap mode: the manager watches the publish directory and flips
    // generations atomically; the router pins one generation per batch.
    SnapshotManagerOptions manager_options;
    manager_options.dir = publish_dir;
    manager_options.engine = router_options.engine;
    manager = std::make_unique<SnapshotManager>(manager_options);
    if (Status initial = manager->LoadInitial(); !initial.ok()) {
      std::fprintf(stderr, "%s\n", initial.ToString().c_str());
      return 1;
    }
    router = std::make_unique<ShardRouter>(manager.get(), router_options);
    manager->StartWatching(flags.GetUint("poll-ms", 200));
    const auto current = manager->Current();
    std::fprintf(stderr,
                 "serving generation %llu: %u concepts, %u instances, "
                 "%llu pairs; watching %s\n",
                 static_cast<unsigned long long>(current->generation),
                 current->reader.num_concepts(), current->reader.num_instances(),
                 static_cast<unsigned long long>(current->reader.num_pairs()),
                 publish_dir.c_str());
  } else {
    auto opened = OpenSnapshotOrDie(flags.Get("snapshot", ""), flags.Has("mmap"));
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    reader = std::make_unique<SnapshotReader>(std::move(*opened));
    router = std::make_unique<ShardRouter>(reader.get(), router_options);
    std::fprintf(stderr, "serving %u concepts, %u instances, %llu pairs\n",
                 reader->num_concepts(), reader->num_instances(),
                 static_cast<unsigned long long>(reader->num_pairs()));
  }

  int rc = 0;
  {
    StatsTicker ticker(router.get(), stats_interval_ms);
    rc = listen.empty() ? ServeLoop(*router) : RunNetServer(*router, listen);
  }
  if (manager != nullptr) manager->StopWatching();
  return rc;
}

/// One-shot query. Positional arguments become protocol fields (joined with
/// tabs), so a quoted multi-word name stays a single field. The exit code
/// mirrors the response class so scripts can branch without parsing: 0 OK,
/// 1 ERR, 3 NOT_FOUND, 4 OVERLOADED (reserved — one-shots never shed).
int Query(int argc, char** argv) {
  std::string snapshot_path;
  std::string connect;
  bool use_mmap = false;
  std::string line;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--mmap") {
      use_mmap = true;
      continue;
    }
    if (arg == "--snapshot" || arg == "--connect" || arg == "--threads") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return 2;
      }
      if (arg == "--snapshot") {
        snapshot_path = argv[++i];
      } else if (arg == "--connect") {
        connect = argv[++i];
      } else {
        uint64_t threads = 0;
        if (!ParseUint64(argv[++i], &threads)) {
          std::fprintf(stderr, "invalid value for --threads: '%s'\n", argv[i]);
          return 2;
        }
        SetGlobalThreadCount(static_cast<int>(threads));
      }
      continue;
    }
    if (StartsWith(arg, "--")) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
    if (!line.empty()) line += '\t';
    line += arg;
  }
  if (line.empty()) {
    std::fprintf(stderr,
                 "usage: semdrift query --snapshot S | --connect EP "
                 "<verb> <args...>\n");
    return 2;
  }
  std::string response;
  if (!connect.empty()) {
    // Remote one-shot: same request, same exit-code contract, answered by a
    // running `serve --listen` instance over its socket.
    auto client = LineClient::Connect(connect);
    if (!client.ok()) {
      std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
      return 1;
    }
    auto remote = client->RoundTrip(line);
    if (!remote.ok()) {
      std::fprintf(stderr, "%s\n", remote.status().ToString().c_str());
      return 1;
    }
    response = std::move(remote).value();
  } else {
    auto reader = OpenSnapshotOrDie(snapshot_path, use_mmap);
    if (!reader.ok()) {
      std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
      return 1;
    }
    QueryEngine engine(&*reader);
    response = engine.Answer(line);
  }
  std::printf("%s\n", response.c_str());
  if (StartsWith(response, "OK")) return 0;
  if (StartsWith(response, "NOT_FOUND")) return 3;
  if (StartsWith(response, "OVERLOADED")) return 4;
  return 1;
}

/// Integrity gate for stored snapshots: Open() re-checks framing and every
/// CRC, then Validate() walks the deep structural invariants. With extra
/// arguments the remaining files are verified as a delta chain rooted at the
/// base: each delta's framing, checksum, base binding (generation + base
/// image CRC32) and record invariants are checked, and each materialized
/// image is re-opened so Validate() runs on every generation the chain can
/// produce. Non-zero exit on any corruption makes this usable as a deploy
/// precondition.
int SnapshotVerify(int argc, char** argv) {
  if (argc < 3 || StartsWith(argv[2], "--")) {
    std::fprintf(stderr,
                 "usage: semdrift snapshot-verify <base> [delta...]\n");
    return 2;
  }
  std::string path = argv[2];
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) {
    std::fprintf(stderr, "FAIL %s\n", bytes.status().ToString().c_str());
    return 1;
  }
  auto reader = SnapshotReader::OpenFromBuffer(*bytes, path);
  if (!reader.ok()) {
    std::fprintf(stderr, "FAIL %s\n", reader.status().ToString().c_str());
    return 1;
  }
  std::printf("OK %s: %u concepts, %u instances, %llu pairs, %llu mutex pairs, "
              "%llu bytes\n",
              path.c_str(), reader->num_concepts(), reader->num_instances(),
              static_cast<unsigned long long>(reader->num_pairs()),
              static_cast<unsigned long long>(reader->num_mutex_pairs()),
              static_cast<unsigned long long>(reader->file_bytes()));
  if (argc == 3) return 0;

  // Walk the chain. The first delta declares which generation the base is;
  // the CRC binding is what actually authenticates it.
  SnapshotParts parts = PartsFromReader(*reader);
  uint32_t crc = Crc32Of(*bytes);
  uint64_t generation = 0;
  for (int i = 3; i < argc; ++i) {
    std::string delta_path = argv[i];
    auto delta = LoadSnapshotDelta(delta_path);
    if (!delta.ok()) {
      std::fprintf(stderr, "FAIL %s\n", delta.status().ToString().c_str());
      return 1;
    }
    if (i == 3) generation = delta->base_generation;
    auto image = MaterializeSnapshotDelta(*delta, parts, generation, crc);
    if (!image.ok()) {
      std::fprintf(stderr, "FAIL %s\n", image.status().ToString().c_str());
      return 1;
    }
    auto next = SnapshotReader::OpenFromBuffer(*image, delta_path);
    if (!next.ok()) {
      std::fprintf(stderr, "FAIL %s\n", next.status().ToString().c_str());
      return 1;
    }
    std::printf("OK %s: generation %llu, %zu records, materialized %u "
                "concepts, %u instances, %llu pairs\n",
                delta_path.c_str(),
                static_cast<unsigned long long>(delta->generation),
                delta->num_records(), next->num_concepts(),
                next->num_instances(),
                static_cast<unsigned long long>(next->num_pairs()));
    parts = PartsFromReader(*next);
    crc = Crc32Of(*image);
    generation = delta->generation;
  }
  std::printf("OK chain verified through generation %llu\n",
              static_cast<unsigned long long>(generation));
  return 0;
}

/// One fuzz-load target: a pristine file plus the loads to attempt on a
/// corrupted copy of it.
struct FuzzTally {
  int runs = 0;
  int strict_ok = 0;       // Corruption happened to be survivable.
  int strict_rejected = 0; // Clean Status error.
  int lenient_ok = 0;
  int lenient_rejected = 0;
  int violations = 0;      // LoadReport failed to account for the damage.
};

void PrintTally(const char* name, const FuzzTally& t) {
  std::printf("%-10s %5d runs  strict ok/rejected %4d/%4d  "
              "lenient ok/rejected %4d/%4d  violations %d\n",
              name, t.runs, t.strict_ok, t.strict_rejected, t.lenient_ok,
              t.lenient_rejected, t.violations);
}

/// A lenient load must account for every payload line: seen = loaded +
/// skipped. Anything else means lines vanished silently.
bool ReportAccounts(const LoadReport& report) {
  return report.lines_seen == report.lines_loaded + report.skipped.size();
}

int FuzzLoad(const Flags& flags) {
  ApplyThreadsFlag(flags);
  uint64_t seed = flags.GetUint("seed", 2014);
  int count = static_cast<int>(flags.GetUint("count", 200));
  double scale = flags.GetDouble("scale", 0.05);
  std::string dir = flags.Get("dir", "");
  if (dir.empty()) {
    dir = (std::filesystem::temp_directory_path() / "semdrift-fuzz").string();
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(), ec.message().c_str());
    return 1;
  }

  // Pristine artifacts to corrupt: a world, a corpus, and a real checkpoint
  // produced by a short checkpointed extraction over them.
  ExperimentConfig config = PaperScaleConfig(scale);
  config.seed = seed;
  config.corpus.render_text = true;
  auto experiment = Experiment::Build(config);
  std::string world_path = dir + "/world.tsv";
  std::string corpus_path = dir + "/corpus.tsv";
  Status s = SaveWorld(experiment->world(), world_path);
  if (s.ok()) s = SaveCorpus(experiment->world(), experiment->corpus(), corpus_path);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  CheckpointConfig checkpoint;
  checkpoint.dir = dir + "/ckpt";
  std::vector<IterationStats> stats;
  auto kb = experiment->ExtractWithCheckpoints(checkpoint, &stats);
  if (!kb.ok() || stats.empty()) {
    std::fprintf(stderr, "checkpoint seed run failed: %s\n",
                 kb.status().ToString().c_str());
    return 1;
  }
  std::string checkpoint_path = CheckpointPath(checkpoint.dir, stats.back().iteration);

  // Serving artifacts round out the target set: a full snapshot compiled
  // from the extracted KB, and a delta from that snapshot to a perturbed
  // compile (one score nudged, so the delta carries real records).
  std::string snap_path = dir + "/snap.bin";
  s = WriteServingSnapshot(*kb, experiment->world(),
                           experiment->corpus().sentences.size(), nullptr,
                           snap_path);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto snap_bytes = ReadFileToString(snap_path);
  if (!snap_bytes.ok()) {
    std::fprintf(stderr, "%s\n", snap_bytes.status().ToString().c_str());
    return 1;
  }
  const uint32_t base_crc = Crc32Of(*snap_bytes);
  auto base_reader = SnapshotReader::OpenFromBuffer(*snap_bytes, snap_path);
  if (!base_reader.ok()) {
    std::fprintf(stderr, "%s\n", base_reader.status().ToString().c_str());
    return 1;
  }
  const SnapshotParts base_parts = PartsFromReader(*base_reader);
  std::string delta_path = dir + "/delta.bin";
  {
    SnapshotParts next_parts = base_parts;
    if (!next_parts.score.empty()) next_parts.score[0] += 1.0;
    auto delta = DiffSnapshotParts(base_parts, next_parts);
    if (!delta.ok()) {
      std::fprintf(stderr, "%s\n", delta.status().ToString().c_str());
      return 1;
    }
    delta->base_generation = 1;
    delta->base_crc32 = base_crc;
    delta->generation = 2;
    Status wrote = WriteSnapshotDeltaFile(*delta, delta_path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
      return 1;
    }
  }

  std::vector<std::string> pristine(5);
  const char* names[5] = {"world", "corpus", "checkpoint", "snapshot", "delta"};
  const std::string paths[5] = {world_path, corpus_path, checkpoint_path,
                                snap_path, delta_path};
  for (int t = 0; t < 5; ++t) {
    auto content = ReadFileToString(paths[t]);
    if (!content.ok()) {
      std::fprintf(stderr, "%s\n", content.status().ToString().c_str());
      return 1;
    }
    pristine[t] = std::move(*content);
  }

  // The sweep runs across the thread pool: each iteration corrupts into its
  // own scratch file, loads, and returns an outcome. Ordered reduction of
  // the outcomes makes the tallies identical to the serial sweep (each
  // iteration's FaultInjector is seeded by index, never by schedule).
  struct FuzzOutcome {
    int target = 0;
    FuzzTally delta;
    std::string io_error;  // Scratch-file write failure, fatal.
  };
  std::vector<FuzzOutcome> outcomes = ParallelMap<FuzzOutcome>(
      static_cast<size_t>(count), [&](size_t i) {
        FuzzOutcome out;
        out.target = static_cast<int>(i % 5);
        FaultInjector injector(seed ^ (0x9e3779b97f4a7c15ULL * (i + 1)));
        FaultKind kind;
        std::string corrupted = injector.CorruptRandom(pristine[out.target], &kind);
        std::string fuzz_path = dir + "/fuzzed-" + std::to_string(i) + ".bin";
        Status written = WriteStringToFile(corrupted, fuzz_path);
        if (!written.ok()) {
          out.io_error = written.ToString();
          return out;
        }
        FuzzTally& tally = out.delta;
        ++tally.runs;
        if (out.target == 0) {
          auto strict = LoadWorld(fuzz_path);
          strict.ok() ? ++tally.strict_ok : ++tally.strict_rejected;
          LoadOptions lenient{LoadOptions::Mode::kLenient};
          LoadReport report;
          auto loose = LoadWorld(fuzz_path, lenient, &report);
          loose.ok() ? ++tally.lenient_ok : ++tally.lenient_rejected;
          if (loose.ok() && !ReportAccounts(report)) ++tally.violations;
        } else if (out.target == 1) {
          auto strict = LoadCorpus(experiment->world(), fuzz_path);
          strict.ok() ? ++tally.strict_ok : ++tally.strict_rejected;
          LoadOptions lenient{LoadOptions::Mode::kLenient};
          LoadReport report;
          auto loose = LoadCorpus(experiment->world(), fuzz_path, lenient, &report);
          loose.ok() ? ++tally.lenient_ok : ++tally.lenient_rejected;
          if (loose.ok() && !ReportAccounts(report)) ++tally.violations;
        } else if (out.target == 2) {
          // Checkpoints have no lenient mode: the full restore pipeline (load,
          // replay, validate) must either produce a valid KB or reject cleanly.
          auto loaded = LoadCheckpoint(fuzz_path);
          if (!loaded.ok()) {
            ++tally.strict_rejected;
          } else {
            auto restored = KnowledgeBase::FromRecords(loaded->records);
            if (restored.ok() &&
                restored->Validate(experiment->world().num_concepts(),
                                   experiment->corpus().sentences.size()).ok()) {
              ++tally.strict_ok;
            } else {
              ++tally.strict_rejected;
            }
          }
        } else if (out.target == 3) {
          // Snapshots are strict-only by design: Open() re-checks every CRC
          // and then deep-validates structure.
          auto opened = SnapshotReader::Open(fuzz_path);
          opened.ok() ? ++tally.strict_ok : ++tally.strict_rejected;
        } else {
          // Deltas: load, materialize against the pristine base, and re-open
          // the produced image. A delta that loads and materializes must
          // yield a snapshot that passes full validation — anything else is
          // a containment violation, not a mere rejection.
          auto delta = LoadSnapshotDelta(fuzz_path);
          if (!delta.ok()) {
            ++tally.strict_rejected;
          } else {
            auto image = MaterializeSnapshotDelta(*delta, base_parts, 1, base_crc);
            if (!image.ok()) {
              ++tally.strict_rejected;
            } else {
              auto opened = SnapshotReader::OpenFromBuffer(*image, fuzz_path);
              if (opened.ok()) {
                ++tally.strict_ok;
              } else {
                ++tally.violations;
              }
            }
          }
        }
        std::error_code remove_ec;
        std::filesystem::remove(fuzz_path, remove_ec);  // Best-effort scratch cleanup.
        return out;
      });

  FuzzTally tallies[5];
  int violations = 0;
  for (const FuzzOutcome& out : outcomes) {
    if (!out.io_error.empty()) {
      std::fprintf(stderr, "%s\n", out.io_error.c_str());
      return 1;
    }
    FuzzTally& tally = tallies[out.target];
    tally.runs += out.delta.runs;
    tally.strict_ok += out.delta.strict_ok;
    tally.strict_rejected += out.delta.strict_rejected;
    tally.lenient_ok += out.delta.lenient_ok;
    tally.lenient_rejected += out.delta.lenient_rejected;
    tally.violations += out.delta.violations;
  }

  std::printf("fuzz-load: %d corruptions over %s seed %llu\n", count, dir.c_str(),
              static_cast<unsigned long long>(seed));
  for (int t = 0; t < 5; ++t) {
    PrintTally(names[t], tallies[t]);
    violations += tallies[t].violations;
  }
  if (violations > 0) {
    std::fprintf(stderr,
                 "FAIL: %d loads did not account for or contain the damage\n",
                 violations);
    return 1;
  }
  std::printf("OK: no crashes, every load rejected cleanly or accounted for damage\n");
  return 0;
}

/// Replays checked-in scenarios against their recorded envelopes. One line
/// per scenario; any violation fails the whole invocation (the ctest gate
/// and check.sh --scenarios both run this over scenarios/*.toml).
int ScenarioRun(const std::vector<std::string>& files, const Flags& flags) {
  ApplyThreadsFlag(flags);
  if (files.empty()) {
    std::fprintf(stderr, "scenario-run: no scenario files given\n");
    return 2;
  }
  int failures = 0;
  for (const std::string& path : files) {
    auto scenario = scenario::LoadScenarioFile(path);
    if (!scenario.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   scenario.status().ToString().c_str());
      return 2;
    }
    auto outcome = scenario::RunScenario(*scenario);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   outcome.status().ToString().c_str());
      return 2;
    }
    if (flags.Has("pin-envelope")) {
      // Authoring aid: record the measured behavior as the file's replay
      // envelope (tight precision bands, cost ceilings) and rewrite it.
      scenario::PinEnvelope(&*scenario, outcome->metrics);
      if (Status s = scenario::SaveScenarioFile(*scenario, path); !s.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), s.ToString().c_str());
        return 2;
      }
      outcome = scenario::RunScenario(*scenario);
      if (!outcome.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     outcome.status().ToString().c_str());
        return 2;
      }
    }
    std::printf("%-28s %s  %s\n", scenario->name.c_str(),
                outcome->ok() ? "PASS" : "FAIL",
                scenario::FormatMetricsLine(outcome->metrics).c_str());
    if (flags.Has("verbose") && !scenario->notes.empty()) {
      std::printf("  notes: %s\n", scenario->notes.c_str());
    }
    for (const std::string& violation : outcome->violations) {
      std::printf("  violation: %s\n", violation.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int ScenarioHunt(const Flags& flags) {
  ApplyThreadsFlag(flags);
  scenario::HuntOptions options;
  options.seed = flags.GetUint("seed", 1);
  options.num_samples = static_cast<int>(flags.GetUint("samples", 50));
  options.archetype = flags.Get("archetype", "");
  options.precision_floor = flags.GetDouble("floor", options.precision_floor);
  options.regression_margin =
      flags.GetDouble("margin", options.regression_margin);
  options.shrink = !flags.Has("no-shrink");
  options.shrink_options.max_evaluations = static_cast<size_t>(
      flags.GetUint("max-shrink-evals", options.shrink_options.max_evaluations));
  options.log = [](const std::string& line) {
    std::fprintf(stderr, "%s\n", line.c_str());
  };
  auto report = scenario::RunHunt(options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("hunted %zu samples, %zu findings\n", report->samples_run,
              report->findings.size());
  const std::string out_dir = flags.Get("out-dir", "");
  for (const auto& finding : report->findings) {
    std::printf("%s: %s\n", finding.scenario.name.c_str(),
                finding.summary.c_str());
    if (!out_dir.empty()) {
      std::filesystem::create_directories(out_dir);
      const std::string path =
          out_dir + "/" + finding.scenario.name + ".toml";
      if (Status s = scenario::SaveScenarioFile(finding.scenario, path);
          !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      std::printf("  -> %s\n", path.c_str());
    }
  }
  return 0;
}

/// Prints (or saves) one grammar sample — the authoring starting point for
/// hand-written scenarios, and the determinism probe for tests.
int ScenarioSample(const Flags& flags) {
  const uint64_t seed = flags.GetUint("seed", 1);
  const std::string archetype = flags.Get("archetype", "");
  scenario::Scenario s = archetype.empty()
                             ? scenario::SampleScenario(seed)
                             : scenario::SampleScenario(seed, archetype);
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fputs(scenario::ScenarioToToml(s).c_str(), stdout);
    return 0;
  }
  if (Status st = scenario::SaveScenarioFile(s, out); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("%s -> %s\n", s.name.c_str(), out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (command == "generate") {
    Flags flags(argc, argv, 2, {"scale", "seed", "world", "corpus", "threads"}, {});
    if (!flags.ok()) {
      std::fprintf(stderr, "%s\n", flags.error().c_str());
      return Usage();
    }
    return Generate(flags);
  }
  if (command == "run") {
    Flags flags(argc, argv, 2,
                {"world", "corpus", "out", "snapshot-out", "snapshot-delta-out",
                 "snapshot-delta-base", "snapshot-delta-base-gen",
                 "checkpoint-dir", "keep-checkpoints", "threads",
                 "stage-deadline-ms", "max-retries", "quarantine", "fault-rate",
                 "fault-seed", "fault-kinds", "fault-stages", "trace-out",
                 "trace-chrome", "metrics-out"},
                {"no-clean", "resume", "validate", "lenient", "supervise",
                 "health-report"});
    if (!flags.ok()) {
      std::fprintf(stderr, "%s\n", flags.error().c_str());
      return Usage();
    }
    return Run(flags);
  }
  if (command == "stream") {
    Flags flags(argc, argv, 2,
                {"world", "corpus", "epochs", "full-rebuild-every",
                 "rebuild-dirty-frac", "publish-dir", "epoch-snapshots",
                 "max-iterations", "max-rounds", "epoch-sleep-ms", "threads",
                 "trace-out", "trace-chrome", "metrics-out"},
                {"lenient", "no-final-rebuild"});
    if (!flags.ok()) {
      std::fprintf(stderr, "%s\n", flags.error().c_str());
      return Usage();
    }
    return StreamCmd(flags);
  }
  if (command == "parse") {
    Flags flags(argc, argv, 2, {"world", "threads"}, {});
    if (!flags.ok()) {
      std::fprintf(stderr, "%s\n", flags.error().c_str());
      return Usage();
    }
    return Parse(flags);
  }
  if (command == "serve") {
    Flags flags(argc, argv, 2,
                {"snapshot", "publish-dir", "poll-ms", "cache", "cache-shards",
                 "max-batch", "max-wait-ms", "deadline-ms", "deadline-budget-ms",
                 "stats-interval-ms", "threads", "listen"},
                {"mmap"});
    if (!flags.ok()) {
      std::fprintf(stderr, "%s\n", flags.error().c_str());
      return Usage();
    }
    return Serve(flags);
  }
  if (command == "query") return Query(argc, argv);
  if (command == "snapshot-verify") return SnapshotVerify(argc, argv);
  if (command == "scenario-run") {
    std::vector<std::string> files;
    int i = 2;
    while (i < argc && !StartsWith(argv[i], "--")) files.push_back(argv[i++]);
    Flags flags(argc, argv, i, {"threads"}, {"verbose", "pin-envelope"});
    if (!flags.ok()) {
      std::fprintf(stderr, "%s\n", flags.error().c_str());
      return Usage();
    }
    return ScenarioRun(files, flags);
  }
  if (command == "scenario-hunt") {
    Flags flags(argc, argv, 2,
                {"seed", "samples", "archetype", "floor", "margin",
                 "max-shrink-evals", "out-dir", "threads"},
                {"no-shrink"});
    if (!flags.ok()) {
      std::fprintf(stderr, "%s\n", flags.error().c_str());
      return Usage();
    }
    return ScenarioHunt(flags);
  }
  if (command == "scenario-sample") {
    Flags flags(argc, argv, 2, {"seed", "archetype", "out", "threads"}, {});
    if (!flags.ok()) {
      std::fprintf(stderr, "%s\n", flags.error().c_str());
      return Usage();
    }
    return ScenarioSample(flags);
  }
  if (command == "fuzz-load") {
    Flags flags(argc, argv, 2, {"count", "seed", "scale", "dir", "threads"}, {});
    if (!flags.ok()) {
      std::fprintf(stderr, "%s\n", flags.error().c_str());
      return Usage();
    }
    return FuzzLoad(flags);
  }
  return Usage();
}
