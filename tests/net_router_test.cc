#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/router.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"
#include "testing/random_structures.h"

namespace semdrift {
namespace {

/// Blocking ask for tests (the router itself never blocks).
std::string Ask(ShardRouter& router, const std::string& line,
                RequestPriority priority = RequestPriority::kNormal) {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  router.Submit(line, priority,
                [&promise](std::string r) { promise.set_value(std::move(r)); });
  return future.get();
}

/// Fresh publish directory holding `image` as generation 1.
std::string PublishDir(const std::string& name, const std::string& image) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  EXPECT_TRUE(PublishSnapshotImage(image, dir + "/snap-1.bin").ok());
  return dir;
}

SnapshotManagerOptions ManagerOptions(const std::string& dir) {
  SnapshotManagerOptions options;
  options.dir = dir;
  options.backoff_base_ms = 0;
  return options;
}

/// Pulls `count:` for one verb out of a stats response line.
uint64_t StatsCount(const std::string& stats, const std::string& verb) {
  const std::string needle = verb + "=count:";
  const size_t pos = stats.find(needle);
  EXPECT_NE(pos, std::string::npos) << stats;
  if (pos == std::string::npos) return ~0ull;
  return std::stoull(stats.substr(pos + needle.size()));
}

class RouterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    World world = property::RandomWorld(7);
    size_t ns = 0;
    KnowledgeBase kb_a = property::RandomKb(world, 7, &ns);
    KnowledgeBase kb_b = property::RandomKb(world, 1007, &ns);
    auto image_a = BuildSnapshotImage(
        CompileSnapshotParts(kb_a, world, nullptr, SnapshotOptions{}));
    auto image_b = BuildSnapshotImage(
        CompileSnapshotParts(kb_b, world, nullptr, SnapshotOptions{}));
    ASSERT_TRUE(image_a.ok() && image_b.ok());
    image_a_ = new std::string(std::move(*image_a));
    image_b_ = new std::string(std::move(*image_b));
    auto reader = SnapshotReader::OpenFromBuffer(*image_a_, "router-fixture");
    ASSERT_TRUE(reader.ok());
    reader_ = new SnapshotReader(std::move(*reader));

    workload_ = new std::vector<std::string>();
    concepts_ = new std::vector<std::string>();
    for (uint32_t c = 0; c < reader_->num_concepts(); ++c) {
      const std::string name(reader_->ConceptName(c));
      if (!concepts_->empty()) {
        workload_->push_back("mutex\t" + concepts_->back() + "\t" + name);
      }
      concepts_->push_back(name);
      workload_->push_back("instances-of\t" + name + "\t4");
      if (reader_->ConceptEnd(c) > reader_->ConceptBegin(c)) {
        const std::string member(
            reader_->InstanceName(reader_->PairInstance(reader_->ConceptBegin(c))));
        workload_->push_back("is-a\t" + member + "\t" + name);
        workload_->push_back("concepts-of\t" + member);
        workload_->push_back("drift-score\t" + member + "\t" + name);
      }
    }
    ASSERT_GT(workload_->size(), 8u);
    ASSERT_GE(concepts_->size(), 2u);
  }
  static void TearDownTestSuite() {
    delete reader_;
    delete image_a_;
    delete image_b_;
    delete workload_;
    delete concepts_;
  }

  static std::string* image_a_;
  static std::string* image_b_;
  static SnapshotReader* reader_;
  static std::vector<std::string>* workload_;
  static std::vector<std::string>* concepts_;
};

std::string* RouterTest::image_a_ = nullptr;
std::string* RouterTest::image_b_ = nullptr;
SnapshotReader* RouterTest::reader_ = nullptr;
std::vector<std::string>* RouterTest::workload_ = nullptr;
std::vector<std::string>* RouterTest::concepts_ = nullptr;

TEST_F(RouterTest, ByteIdenticalToDirectEngine) {
  QueryEngine direct(reader_);
  ShardRouter router(reader_, RouterOptions{});
  for (const std::string& line : *workload_) {
    EXPECT_EQ(Ask(router, line), direct.Answer(line)) << line;
  }
}

TEST_F(RouterTest, StatsCountEveryRequestExactlyOnce) {
  ShardRouter router(reader_, RouterOptions{});
  uint64_t instances_of = 0;
  uint64_t mutex = 0;
  for (const std::string& line : *workload_) {
    Ask(router, line);
    if (line.rfind("instances-of", 0) == 0) instances_of++;
    if (line.rfind("mutex", 0) == 0) mutex++;
  }
  ASSERT_GT(mutex, 0u);
  const std::string stats = Ask(router, "stats");
  ASSERT_EQ(stats.rfind("OK\tstats", 0), 0u) << stats;
  EXPECT_EQ(StatsCount(stats, "instances-of"), instances_of);
  EXPECT_EQ(StatsCount(stats, "mutex"), mutex);
  EXPECT_EQ(stats.find("shards="), std::string::npos) << stats;
}

TEST_F(RouterTest, StatsAndMetricsAnsweredInline) {
  ShardRouter router(reader_, RouterOptions{});
  // With dispatch held, anything that went through the batcher would wait;
  // stats and metrics must still answer at once on the submitting thread.
  router.Pause();
  std::promise<std::string> queued;
  std::future<std::string> queued_answer = queued.get_future();
  router.Submit((*workload_)[0], RequestPriority::kNormal,
                [&queued](std::string r) { queued.set_value(std::move(r)); });
  const std::pair<std::string, std::string> inline_verbs[] = {
      {"metrics", "OK\t{"}, {"stats", "OK\tstats"}};
  for (const auto& [verb, prefix] : inline_verbs) {
    std::promise<std::string> promise;
    std::future<std::string> answer = promise.get_future();
    router.Submit(verb, RequestPriority::kNormal,
                  [&promise](std::string r) { promise.set_value(std::move(r)); });
    ASSERT_EQ(answer.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << verb;
    const std::string response = answer.get();
    EXPECT_EQ(response.rfind(prefix, 0), 0u) << response.substr(0, 40);
  }
  EXPECT_EQ(queued_answer.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);
  router.Resume();
  EXPECT_EQ(queued_answer.get(), QueryEngine(reader_).Answer((*workload_)[0]));
}

TEST_F(RouterTest, HotSwapAnswersMatchEachGeneration) {
  const std::string dir = PublishDir("router_hotswap", *image_a_);
  SnapshotManager manager(ManagerOptions(dir));
  ASSERT_TRUE(manager.LoadInitial().ok());
  ShardRouter router(&manager, RouterOptions{});
  EXPECT_EQ(router.generation(), 1u);

  auto reader_b = SnapshotReader::OpenFromBuffer(*image_b_, "gen2");
  ASSERT_TRUE(reader_b.ok());
  QueryEngine engine_a(reader_);
  QueryEngine engine_b(&*reader_b);
  for (const std::string& line : *workload_) {
    EXPECT_EQ(Ask(router, line), engine_a.Answer(line)) << line;
  }

  ASSERT_TRUE(PublishSnapshotImage(*image_b_, dir + "/snap-2.bin").ok());
  EXPECT_EQ(manager.Poll().swaps, 1);
  EXPECT_EQ(router.generation(), 2u);
  for (const std::string& line : *workload_) {
    EXPECT_EQ(Ask(router, line), engine_b.Answer(line)) << line;
  }
  const std::string stats = Ask(router, "stats");
  EXPECT_NE(stats.find("\tgeneration=2\t"), std::string::npos) << stats;
}

TEST_F(RouterTest, OneEnginePerGeneration) {
  const std::string dir = PublishDir("router_one_engine", *image_a_);
  SnapshotManager manager(ManagerOptions(dir));
  ASSERT_TRUE(manager.LoadInitial().ok());
  ShardRouter router(&manager, RouterOptions{});
  for (const std::string& line : *workload_) Ask(router, line);
  ASSERT_TRUE(PublishSnapshotImage(*image_b_, dir + "/snap-2.bin").ok());
  ASSERT_EQ(manager.Poll().swaps, 1);
  for (const std::string& line : *workload_) Ask(router, line);

  // The router answers from the manager's own engine: its stats line is that
  // engine's FormatStats(), byte for byte. A second engine per generation
  // would count the traffic somewhere the manager's engine cannot see.
  const std::string stats = Ask(router, "stats");
  EXPECT_EQ(stats, manager.Current()->engine->FormatStats());
  EXPECT_EQ(StatsCount(stats, "instances-of"), 2 * concepts_->size());
}

TEST_F(RouterTest, ConcurrentSubmitsAcrossSwapsAnswerFromOneGeneration) {
  const std::string dir = PublishDir("router_concurrent", *image_a_);
  SnapshotManager manager(ManagerOptions(dir));
  ASSERT_TRUE(manager.LoadInitial().ok());
  ShardRouter router(&manager, RouterOptions{});

  auto reader_b = SnapshotReader::OpenFromBuffer(*image_b_, "gen2");
  ASSERT_TRUE(reader_b.ok());
  QueryEngine engine_a(reader_);
  QueryEngine engine_b(&*reader_b);
  std::vector<std::thread> clients;
  std::vector<int> mismatches(4, 0);
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < 3; ++round) {
        for (const std::string& line : *workload_) {
          const std::string answer = Ask(router, line);
          if (answer != engine_a.Answer(line) && answer != engine_b.Answer(line)) {
            mismatches[c]++;
          }
        }
      }
    });
  }
  for (int swap = 2; swap <= 4; ++swap) {
    const std::string& image = swap % 2 == 0 ? *image_b_ : *image_a_;
    ASSERT_TRUE(
        PublishSnapshotImage(image, dir + "/snap-" + std::to_string(swap) + ".bin")
            .ok());
    manager.Poll();
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < 4; ++c) EXPECT_EQ(mismatches[c], 0) << "client " << c;
  EXPECT_EQ(router.generation(), 4u);
}

TEST_F(RouterTest, NoGenerationYieldsErr) {
  const std::string dir = ::testing::TempDir() + "/router_empty";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  SnapshotManager manager(ManagerOptions(dir));
  ShardRouter router(&manager, RouterOptions{});
  EXPECT_EQ(Ask(router, "instances-of\tanything"), kNoGenerationResponse);
  EXPECT_EQ(Ask(router, "stats"), kNoGenerationResponse);
}

}  // namespace
}  // namespace semdrift
