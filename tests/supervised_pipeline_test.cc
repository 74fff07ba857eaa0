#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "dp/cleaner.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "util/supervisor.h"
#include "util/thread_pool.h"

namespace semdrift {
namespace {

/// Byte-level fingerprint of a KB: its full provenance log. Two KBs with
/// equal dumps replay to identical derived state, so this is the
/// bit-identity check the supervision layer promises.
std::string Dump(const KnowledgeBase& kb) {
  std::string out;
  for (const ExtractionRecord& r : kb.records()) {
    out += std::to_string(r.id) + "," + std::to_string(r.sentence.value) + "," +
           std::to_string(r.concept_id.value) + "," + std::to_string(r.iteration) +
           "," + (r.rolled_back ? "1" : "0") + ",[";
    for (InstanceId e : r.instances) out += std::to_string(e.value) + " ";
    out += "],[";
    for (InstanceId e : r.triggers) out += std::to_string(e.value) + " ";
    out += "]\n";
  }
  return out;
}

std::vector<uint32_t> RawIds(const std::vector<ConceptId>& scope) {
  std::vector<uint32_t> out;
  for (ConceptId c : scope) out.push_back(c.value);
  return out;
}

ExperimentConfig SmallConfig() {
  ExperimentConfig config = PaperScaleConfig(0.08);
  return config;
}

CleanerOptions FastCleanerOptions() {
  CleanerOptions options;
  options.max_rounds = 2;
  return options;
}

SupervisorOptions FastSupervisorOptions() {
  SupervisorOptions options;
  options.stage_deadline_ms = 5000;
  options.max_retries = 1;
  options.backoff_base_ms = 0;
  return options;
}

/// Acceptance gate 1: with supervision on and no fault injected, the
/// supervised pipeline is a pure observer — KB and report bit-identical to
/// the unsupervised cleaner, health report empty.
TEST(SupervisedCleanTest, FaultFreeMatchesUnsupervised) {
  auto experiment = Experiment::Build(SmallConfig());
  std::vector<ConceptId> scope = experiment->EvalConcepts();
  CleanerOptions options = FastCleanerOptions();
  DpCleaner cleaner(&experiment->corpus().sentences,
                    experiment->MakeVerifiedSource(),
                    experiment->world().num_concepts(), options);

  KnowledgeBase plain_kb = experiment->Extract();
  CleaningReport plain = cleaner.Clean(&plain_kb, scope);

  KnowledgeBase supervised_kb = experiment->Extract();
  Supervisor supervisor(FastSupervisorOptions());
  SupervisedCleanHooks hooks;
  hooks.supervisor = &supervisor;
  auto supervised = cleaner.CleanSupervised(&supervised_kb, scope, hooks);
  ASSERT_TRUE(supervised.ok()) << supervised.status().ToString();

  EXPECT_EQ(Dump(plain_kb), Dump(supervised_kb));
  EXPECT_EQ(plain.rounds, supervised->rounds);
  EXPECT_EQ(plain.records_rolled_back, supervised->records_rolled_back);
  EXPECT_EQ(plain.live_pairs_after, supervised->live_pairs_after);
  EXPECT_TRUE(supervisor.health()->empty());
}

/// The guarded warm is the clean's only warm driver, so it feeds the warm
/// metrics (perfbench derives rank.warm_cpu_ratio from warm.concept_ns):
/// every round warms each concept of the scope once.
TEST(SupervisedCleanTest, GuardedWarmRecordsWarmMetrics) {
  auto experiment = Experiment::Build(SmallConfig());
  std::vector<ConceptId> scope = experiment->EvalConcepts();
  DpCleaner cleaner(&experiment->corpus().sentences,
                    experiment->MakeVerifiedSource(),
                    experiment->world().num_concepts(), FastCleanerOptions());

  KnowledgeBase kb = experiment->Extract();
  Supervisor supervisor(FastSupervisorOptions());
  SupervisedCleanHooks hooks;
  hooks.supervisor = &supervisor;
  uint64_t concepts_before = GlobalMetrics().CounterValue("warm.concepts");
  uint64_t timed_before = GlobalMetrics().HistogramValues("warm.concept_ns").count;
  auto report = cleaner.CleanSupervised(&kb, scope, hooks);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->rounds, 0);

  uint64_t warmed = scope.size() * static_cast<uint64_t>(report->rounds);
  EXPECT_EQ(GlobalMetrics().CounterValue("warm.concepts") - concepts_before, warmed);
  EXPECT_EQ(GlobalMetrics().HistogramValues("warm.concept_ns").count - timed_before,
            warmed);
}

/// Acceptance gate 2: persistent faults quarantine exactly the planned
/// concepts; the survivors' output is bit-identical to a fault-free run over
/// the reduced scope; and the whole thing is thread-count independent.
TEST(SupervisedCleanTest, PersistentWarmFaultsQuarantineExactlyPlanned) {
  auto experiment = Experiment::Build(SmallConfig());
  std::vector<ConceptId> scope = experiment->EvalConcepts();
  CleanerOptions options = FastCleanerOptions();
  DpCleaner cleaner(&experiment->corpus().sentences,
                    experiment->MakeVerifiedSource(),
                    experiment->world().num_concepts(), options);

  ComputeFaultPlan plan;
  plan.seed = 2014;
  plan.rate = 0.3;
  plan.kinds = {ComputeFaultKind::kThrow};
  plan.stages = {PipelineStage::kScoreWarm};
  std::vector<uint32_t> planned = plan.FaultedAmong(RawIds(scope));
  ASSERT_FALSE(planned.empty());
  ASSERT_LT(planned.size(), scope.size());

  auto run_faulted = [&](int threads) {
    SetGlobalThreadCount(threads);
    KnowledgeBase kb = experiment->Extract();
    Supervisor supervisor(FastSupervisorOptions(), plan);
    SupervisedCleanHooks hooks;
    hooks.supervisor = &supervisor;
    auto report = cleaner.CleanSupervised(&kb, scope, hooks);
    SetGlobalThreadCount(0);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::make_pair(Dump(kb), supervisor.health()->ToLines());
  };

  auto [dump1, health1] = run_faulted(1);
  auto [dump4, health4] = run_faulted(4);
  EXPECT_EQ(dump1, dump4);
  EXPECT_EQ(health1, health4);

  // Exactly the planned concepts are quarantined — no survivor was taken
  // down with them, no faulted concept slipped through.
  Supervisor probe(FastSupervisorOptions(), plan);
  {
    KnowledgeBase kb = experiment->Extract();
    SupervisedCleanHooks hooks;
    hooks.supervisor = &probe;
    ASSERT_TRUE(cleaner.CleanSupervised(&kb, scope, hooks).ok());
    EXPECT_EQ(Dump(kb), dump1);
  }
  EXPECT_EQ(probe.health()->Quarantined(), planned);

  // Survivors match a fault-free supervised run over the reduced scope.
  std::vector<ConceptId> reduced;
  for (ConceptId c : scope) {
    if (!probe.health()->IsQuarantined(c.value)) reduced.push_back(c);
  }
  KnowledgeBase reduced_kb = experiment->Extract();
  Supervisor clean_supervisor(FastSupervisorOptions());
  SupervisedCleanHooks hooks;
  hooks.supervisor = &clean_supervisor;
  ASSERT_TRUE(cleaner.CleanSupervised(&reduced_kb, reduced, hooks).ok());
  EXPECT_TRUE(clean_supervisor.health()->empty());
  EXPECT_EQ(Dump(reduced_kb), dump1);
}

/// Transient faults exercise the retry path: the run records kRetried
/// outcomes but the result is bit-identical to fault-free.
TEST(SupervisedCleanTest, TransientFaultsRetryAndMatchFaultFree) {
  auto experiment = Experiment::Build(SmallConfig());
  std::vector<ConceptId> scope = experiment->EvalConcepts();
  CleanerOptions options = FastCleanerOptions();
  DpCleaner cleaner(&experiment->corpus().sentences,
                    experiment->MakeVerifiedSource(),
                    experiment->world().num_concepts(), options);

  KnowledgeBase plain_kb = experiment->Extract();
  cleaner.Clean(&plain_kb, scope);

  ComputeFaultPlan plan;
  plan.seed = 99;
  plan.rate = 0.3;
  plan.kinds = {ComputeFaultKind::kThrow};
  plan.stages = {PipelineStage::kScoreWarm};
  plan.transient_attempts = 1;  // First attempt fails, retry succeeds.
  ASSERT_FALSE(plan.FaultedAmong(RawIds(scope)).empty());

  KnowledgeBase kb = experiment->Extract();
  Supervisor supervisor(FastSupervisorOptions(), plan);
  SupervisedCleanHooks hooks;
  hooks.supervisor = &supervisor;
  auto report = cleaner.CleanSupervised(&kb, scope, hooks);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(Dump(kb), Dump(plain_kb));
  EXPECT_GE(supervisor.health()->CountWithOutcome(ConceptOutcome::kRetried), 1u);
  EXPECT_TRUE(supervisor.health()->Quarantined().empty());
}

/// NaN injected into feature collection: the bad vectors are dropped with
/// provenance, the concept is flagged degraded, and the run completes.
TEST(SupervisedCleanTest, NanAtCollectDropsInstancesAndCompletes) {
  auto experiment = Experiment::Build(SmallConfig());
  std::vector<ConceptId> scope = experiment->EvalConcepts();
  CleanerOptions options = FastCleanerOptions();
  DpCleaner cleaner(&experiment->corpus().sentences,
                    experiment->MakeVerifiedSource(),
                    experiment->world().num_concepts(), options);

  ComputeFaultPlan plan;
  plan.seed = 7;
  plan.rate = 0.5;
  plan.kinds = {ComputeFaultKind::kNanEmit};
  plan.stages = {PipelineStage::kCollectTraining};
  ASSERT_FALSE(plan.FaultedAmong(RawIds(scope)).empty());

  KnowledgeBase kb = experiment->Extract();
  Supervisor supervisor(FastSupervisorOptions(), plan);
  SupervisedCleanHooks hooks;
  hooks.supervisor = &supervisor;
  auto report = cleaner.CleanSupervised(&kb, scope, hooks);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_GE(supervisor.health()->num_drops(), 1u);
  EXPECT_GE(supervisor.health()->CountWithOutcome(ConceptOutcome::kDegraded), 1u);
  EXPECT_TRUE(supervisor.health()->Quarantined().empty());
}

/// A persistently failing detector train falls down the AdHoc ladder instead
/// of killing the run.
TEST(SupervisedCleanTest, DetectorTrainFaultFallsBack) {
  auto experiment = Experiment::Build(SmallConfig());
  std::vector<ConceptId> scope = experiment->EvalConcepts();
  CleanerOptions options = FastCleanerOptions();
  DpCleaner cleaner(&experiment->corpus().sentences,
                    experiment->MakeVerifiedSource(),
                    experiment->world().num_concepts(), options);

  ComputeFaultPlan plan;
  plan.seed = 4;
  plan.rate = 1.0;
  plan.kinds = {ComputeFaultKind::kThrow};
  plan.stages = {PipelineStage::kDetectorTrain};

  KnowledgeBase kb = experiment->Extract();
  SupervisorOptions sup_options = FastSupervisorOptions();
  sup_options.max_retries = 0;
  Supervisor supervisor(sup_options, plan);
  SupervisedCleanHooks hooks;
  hooks.supervisor = &supervisor;
  auto report = cleaner.CleanSupervised(&kb, scope, hooks);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(supervisor.health()->detector_fallback());
  EXPECT_NE(supervisor.health()->detector_detail().find("fell back"),
            std::string::npos);
}

/// With quarantine off, an exhausted stage aborts the run with its error.
TEST(SupervisedCleanTest, QuarantineOffFailsFast) {
  auto experiment = Experiment::Build(SmallConfig());
  std::vector<ConceptId> scope = experiment->EvalConcepts();
  DpCleaner cleaner(&experiment->corpus().sentences,
                    experiment->MakeVerifiedSource(),
                    experiment->world().num_concepts(), FastCleanerOptions());

  ComputeFaultPlan plan;
  plan.seed = 2014;
  plan.rate = 0.3;
  plan.kinds = {ComputeFaultKind::kThrow};
  plan.stages = {PipelineStage::kScoreWarm};
  ASSERT_FALSE(plan.FaultedAmong(RawIds(scope)).empty());

  KnowledgeBase kb = experiment->Extract();
  SupervisorOptions options = FastSupervisorOptions();
  options.quarantine = false;
  Supervisor supervisor(options, plan);
  SupervisedCleanHooks hooks;
  hooks.supervisor = &supervisor;
  auto report = cleaner.CleanSupervised(&kb, scope, hooks);
  EXPECT_FALSE(report.ok());
}

/// Satellite + acceptance gate 3: checkpoint -> quarantine -> crash ->
/// resume produces a byte-identical final KB and health report.
TEST(SupervisedPipelineTest, CheckpointResumeRestoresQuarantineAndMatches) {
  auto experiment = Experiment::Build(SmallConfig());
  std::vector<ConceptId> scope = experiment->EvalConcepts();

  ComputeFaultPlan plan;
  plan.seed = 2014;
  plan.rate = 0.3;
  plan.kinds = {ComputeFaultKind::kThrow};
  plan.stages = {PipelineStage::kScoreWarm};
  ASSERT_FALSE(plan.FaultedAmong(RawIds(scope)).empty());

  SupervisedRunConfig config;
  config.cleaner = FastCleanerOptions();
  config.supervisor = FastSupervisorOptions();
  config.faults = plan;

  // Uninterrupted reference run (its own checkpoint dir).
  std::string dir_a = ::testing::TempDir() + "/supervised_ckpt_a";
  std::filesystem::remove_all(dir_a);
  config.checkpoint.dir = dir_a;
  auto reference = experiment->RunSupervised(scope, config);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_FALSE(reference->health.Quarantined().empty());
  ASSERT_GT(reference->cleaning.rounds, 0);

  // Interrupted run: complete once into dir B, then simulate a crash by
  // deleting the newest snapshot, then resume.
  std::string dir_b = ::testing::TempDir() + "/supervised_ckpt_b";
  std::filesystem::remove_all(dir_b);
  config.checkpoint.dir = dir_b;
  auto first = experiment->RunSupervised(scope, config);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(Dump(first->kb), Dump(reference->kb));

  int newest = -1;
  std::string newest_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir_b)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint-", 0) != 0) continue;
    int index = std::atoi(name.substr(11).c_str());
    if (index > newest) {
      newest = index;
      newest_path = entry.path().string();
    }
  }
  ASSERT_GE(newest, 0);
  std::filesystem::remove(newest_path);

  config.checkpoint.resume = true;
  auto resumed = experiment->RunSupervised(scope, config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();

  EXPECT_EQ(Dump(resumed->kb), Dump(reference->kb));
  EXPECT_EQ(resumed->health.ToLines(), reference->health.ToLines());
  EXPECT_EQ(resumed->health.Quarantined(), reference->health.Quarantined());
  EXPECT_EQ(resumed->stats.size(), reference->stats.size());
}

}  // namespace
}  // namespace semdrift
