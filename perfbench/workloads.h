// The four perfbench workloads and the pieces they share: the run context,
// the batch pipeline as the CLI's `run` composes it, request generation over
// a snapshot, and an in-process NetServer behind a SnapshotManager.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "eval/experiment.h"
#include "loadgen.h"
#include "net/router.h"
#include "net/server.h"
#include "serve/snapshot_manager.h"
#include "stats.h"

namespace perfbench {

/// One invocation: arguments in, metrics and verdicts out.
struct RunContext {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  int threads = 1;
  /// Scratch directory for publish dirs and sockets (relative to the cwd).
  std::string work_dir;
  Report report{false};
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Output-check failures; any entry makes the run incorrect.
  std::vector<std::string> check_failures;
  /// Workload parameters and per-rung counts for the environment record,
  /// as (key, already-encoded JSON value).
  std::vector<std::pair<std::string, std::string>> params;

  void Check(bool ok, const std::string& what);
  void Param(const std::string& key, double value);
  void Param(const std::string& key, const std::string& json_value);
};

int RunBatchWorkload(RunContext* ctx);
int RunStreamWorkload(RunContext* ctx);
int RunServeWorkload(RunContext* ctx, bool zipf);

/// World and corpus from PaperScaleConfig(scale) under the benchmark seed.
std::unique_ptr<semdrift::Experiment> BuildExperiment(double scale, uint64_t seed);

/// Set-ups per run; the reported setup_s is their median.
constexpr int kSetupRepeats = 5;

/// Every workload's p50_us is read over a unix socket at this fixed, light
/// open-loop rate, from the due time, as the median of per-window medians
/// (windows of kReadWindow requests, so one host stall cannot move it).
/// The period (2 ms) is well clear of the batcher's 1 ms linger: at a 1 ms
/// period a request joined the previous one's batch or not by chance, and
/// p50 flipped between ~0.3 and ~1.05 ms from run to run.
constexpr double kReadQps = 500.0;
constexpr size_t kReadWindow = 1000;
/// A read slower than this misses; a reader whose p90 lateness exceeds it
/// fell behind and its run is invalid.
constexpr double kReadLimitUs = 5000.0;

/// Set-up repeated `repeats` times (the last result is kept); returns the
/// median wall seconds of one set-up.
template <typename Fn>
double MedianSetup(int repeats, Fn&& setup) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    CpuWallTimer timer;
    setup();
    times.push_back(timer.WallSeconds());
  }
  return Median(std::move(times));
}

/// One batch `run` (extract, DpCleaner::Clean over all concepts with
/// default CleanerOptions, compile the serving image) and its checks.
struct BatchRun {
  std::string image;
  double run_s = 0.0;
  double precision = 0.0;
  /// KnowledgeBase::Validate and snapshot Validate results.
  semdrift::Status kb_valid;
  semdrift::Status snapshot_valid;
};
BatchRun RunBatchPipeline(const semdrift::Experiment& experiment);

/// Compiles `kb` into a framed serving image.
std::string CompileImage(const semdrift::KnowledgeBase& kb, const semdrift::World& world);

/// Every populated (concept, instance) pair of a snapshot, by name.
std::vector<std::pair<std::string, std::string>> PairsOf(
    const semdrift::SnapshotReader& snapshot);

/// Answers of an uncached reference engine over `snapshot` for each line.
std::vector<std::string> ReferenceAnswers(const semdrift::SnapshotReader& snapshot,
                                          const std::vector<std::string>& lines);

/// Writes `image` as generation `generation` into `dir` (snap-<gen>.bin).
semdrift::Status PublishImage(const std::string& image, const std::string& dir,
                              uint64_t generation);

/// Empties (or creates) a directory.
semdrift::Status ResetDir(const std::string& dir);

/// SnapshotManager + single-shard ShardRouter + NetServer on a unix socket,
/// all in this process. Destruction stops the server and the watcher.
class LiveServer {
 public:
  LiveServer(const std::string& publish_dir, const std::string& socket_path);
  ~LiveServer();
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  /// Loads the newest published generation and starts listening.
  semdrift::Status Start(int watch_poll_ms);
  semdrift::SnapshotManager& manager() { return manager_; }
  semdrift::NetServer& server() { return *server_; }
  const std::string& endpoint() const { return endpoint_; }

 private:
  std::string endpoint_;
  semdrift::SnapshotManager manager_;
  std::unique_ptr<semdrift::ShardRouter> router_;
  std::unique_ptr<semdrift::NetServer> server_;
  bool watching_ = false;
};

/// Sends `stats` on `endpoint` until the served generation reaches `want`;
/// returns the steady-clock time of the answer that showed it, or 0 when
/// the deadline passed or the connection failed.
int64_t WaitForGeneration(const std::string& endpoint, uint64_t want,
                          double deadline_s);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
