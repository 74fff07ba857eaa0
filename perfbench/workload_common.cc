#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>

#include "dp/cleaner.h"
#include "eval/metrics.h"
#include "extract/extractor.h"
#include "net/net_client.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "workloads.h"

namespace perfbench {

using namespace semdrift;

void RunContext::Check(bool ok, const std::string& what) {
  if (!ok) check_failures.push_back(what);
}

void RunContext::Param(const std::string& key, double value) {
  params.emplace_back(key, JsonNumber(value));
}

void RunContext::Param(const std::string& key, const std::string& json_value) {
  params.emplace_back(key, json_value);
}

std::unique_ptr<Experiment> BuildExperiment(double scale, uint64_t seed) {
  ExperimentConfig config = PaperScaleConfig(scale);
  config.seed = seed;
  return Experiment::Build(config);
}

std::string CompileImage(const KnowledgeBase& kb, const World& world) {
  SnapshotParts parts = CompileSnapshotParts(kb, world, nullptr, SnapshotOptions{});
  Result<std::string> image = BuildSnapshotImage(parts);
  return image.ok() ? std::move(*image) : std::string();
}

BatchRun RunBatchPipeline(const Experiment& experiment) {
  BatchRun out;
  const std::vector<ConceptId> scope = experiment.AllConcepts();
  const SentenceStore& sentences = experiment.corpus().sentences;
  KnowledgeBase kb;
  CpuWallTimer timer;
  IterativeExtractor extractor(&sentences, experiment.config().extractor);
  extractor.Run(&kb);
  DpCleaner cleaner(&sentences, experiment.MakeVerifiedSource(),
                    experiment.world().num_concepts(), CleanerOptions{});
  cleaner.Clean(&kb, scope);
  out.image = CompileImage(kb, experiment.world());
  out.run_s = timer.WallSeconds();

  out.kb_valid = kb.Validate(experiment.world().num_concepts(), sentences.size());
  Result<SnapshotReader> reader = SnapshotReader::OpenFromBuffer(out.image, "batch");
  out.snapshot_valid = reader.ok() ? reader->Validate() : reader.status();
  out.precision = LivePairPrecision(experiment.truth(), kb, scope);
  return out;
}

std::vector<std::pair<std::string, std::string>> PairsOf(const SnapshotReader& snapshot) {
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(snapshot.num_pairs());
  for (uint32_t c = 0; c < snapshot.num_concepts(); ++c) {
    for (uint64_t p = snapshot.ConceptBegin(c); p < snapshot.ConceptEnd(c); ++p) {
      pairs.emplace_back(std::string(snapshot.ConceptName(c)),
                         std::string(snapshot.InstanceName(snapshot.PairInstance(p))));
    }
  }
  return pairs;
}

std::vector<std::string> ReferenceAnswers(const SnapshotReader& snapshot,
                                          const std::vector<std::string>& lines) {
  QueryEngineOptions options;
  options.cache_capacity = 0;
  QueryEngine engine(&snapshot, options);
  std::vector<std::string> answers;
  answers.reserve(lines.size());
  for (const std::string& line : lines) {
    answers.push_back(engine.Answer(line, /*record_stats=*/false));
  }
  return answers;
}

Status PublishImage(const std::string& image, const std::string& dir,
                    uint64_t generation) {
  return PublishSnapshotImage(image, dir + "/snap-" + std::to_string(generation) + ".bin");
}

Status ResetDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  return Status::OK();
}

namespace {

SnapshotManagerOptions ManagerOptions(const std::string& dir) {
  SnapshotManagerOptions options;
  options.dir = dir;
  return options;
}

}  // namespace

LiveServer::LiveServer(const std::string& publish_dir, const std::string& socket_path)
    : endpoint_("unix:" + socket_path), manager_(ManagerOptions(publish_dir)) {}

LiveServer::~LiveServer() {
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  if (watching_) manager_.StopWatching();
  router_.reset();
}

Status LiveServer::Start(int watch_poll_ms) {
  if (Status loaded = manager_.LoadInitial(); !loaded.ok()) return loaded;
  router_ = std::make_unique<ShardRouter>(&manager_, RouterOptions{});
  NetServerOptions options;
  options.listen = endpoint_;
  server_ = std::make_unique<NetServer>(router_.get(), options);
  if (Status started = server_->Start(); !started.ok()) return started;
  if (watch_poll_ms > 0) {
    manager_.StartWatching(watch_poll_ms);
    watching_ = true;
  }
  return Status::OK();
}

int64_t WaitForGeneration(const std::string& endpoint, uint64_t want, double deadline_s) {
  Result<LineClient> client = LineClient::Connect(endpoint);
  if (!client.ok()) return 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(deadline_s * 1e9);
  while (NowNs() < deadline) {
    Result<std::string> stats = client->RoundTrip("stats");
    if (!stats.ok()) return 0;
    if (ParseGeneration(*stats) >= want) return NowNs();
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return 0;
}

}  // namespace perfbench
