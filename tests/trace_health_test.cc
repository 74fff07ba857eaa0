// Acceptance test for the tracing layer's health contract: a supervised run
// with injected faults must emit "health.*" spans whose tags carry the full
// mutation, so replaying them into a fresh RunHealthReport reproduces the
// run's report exactly (ToLines() equality). Also pins the determinism
// contract: the deterministic span fields (CanonicalLine) are identical at
// any thread count. The default (unsupervised) clean is attributable too:
// it emits its detector-train, classify and Eq. 21 spans from the calling
// thread.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dp/cleaner.h"
#include "eval/experiment.h"
#include "obs/trace.h"
#include "serve/snapshot.h"
#include "util/fault_injection.h"
#include "util/supervisor.h"
#include "util/thread_pool.h"

namespace semdrift {
namespace {

std::string TagValue(const TraceSpan& span, const std::string& key) {
  for (const auto& [k, v] : span.tags) {
    if (k == key) return v;
  }
  return "";
}

/// Replays every health.* span of `spans` into a fresh report, exactly the
/// way an external trace consumer would.
RunHealthReport ReplayHealth(const std::vector<TraceSpan>& spans) {
  RunHealthReport replayed;
  for (const TraceSpan& s : spans) {
    if (s.name == "health.concept") {
      ConceptOutcome outcome;
      PipelineStage stage;
      EXPECT_TRUE(ParseConceptOutcome(s.outcome, &outcome)) << s.outcome;
      EXPECT_TRUE(ParsePipelineStage(TagValue(s, "stage"), &stage));
      replayed.Record(s.concept_id, outcome, s.attempt, stage,
                      TagValue(s, "detail"));
    } else if (s.name == "health.drop") {
      DroppedInstance drop;
      drop.concept_id = s.concept_id;
      drop.instance =
          static_cast<uint32_t>(std::stoul(TagValue(s, "instance")));
      EXPECT_TRUE(ParsePipelineStage(TagValue(s, "stage"), &drop.stage));
      drop.reason = TagValue(s, "reason");
      replayed.RecordDrop(drop);
    } else if (s.name == "health.fallback") {
      replayed.RecordDetectorFallback(s.attempt, TagValue(s, "detail"));
    }
  }
  return replayed;
}

struct FaultedRun {
  std::vector<std::string> health_lines;
  std::vector<TraceSpan> spans;
};

/// One supervised clean with persistent and transient faults across two
/// stages, traced; returns the run's health report and the trace.
FaultedRun RunFaulted(int threads) {
  ExperimentConfig config = PaperScaleConfig(0.08);
  auto experiment = Experiment::Build(config);
  std::vector<ConceptId> scope = experiment->EvalConcepts();
  CleanerOptions options;
  options.max_rounds = 2;
  DpCleaner cleaner(&experiment->corpus().sentences,
                    experiment->MakeVerifiedSource(),
                    experiment->world().num_concepts(), options);

  ComputeFaultPlan plan;
  plan.seed = 2014;
  plan.rate = 0.3;
  plan.kinds = {ComputeFaultKind::kThrow, ComputeFaultKind::kNanEmit};
  plan.stages = {PipelineStage::kScoreWarm, PipelineStage::kCollectTraining};

  SupervisorOptions sup_options;
  sup_options.stage_deadline_ms = 5000;
  sup_options.max_retries = 1;
  sup_options.backoff_base_ms = 0;

  SetGlobalThreadCount(threads);
  GlobalTrace().Clear();
  GlobalTrace().Enable(true);
  KnowledgeBase kb = experiment->Extract();
  Supervisor supervisor(sup_options, plan);
  SupervisedCleanHooks hooks;
  hooks.supervisor = &supervisor;
  auto report = cleaner.CleanSupervised(&kb, scope, hooks);
  GlobalTrace().Enable(false);
  SetGlobalThreadCount(0);
  EXPECT_TRUE(report.ok()) << report.status().ToString();

  FaultedRun out;
  out.health_lines = supervisor.health()->ToLines();
  out.spans = GlobalTrace().Snapshot();
  GlobalTrace().Clear();
  return out;
}

TEST(TraceHealthTest, HealthSpansReconstructTheReportExactly) {
  FaultedRun run = RunFaulted(/*threads=*/4);
  // The fault plan must actually have hurt something, or this test proves
  // nothing.
  ASSERT_FALSE(run.health_lines.empty());
  size_t health_spans = 0;
  for (const TraceSpan& s : run.spans) {
    if (s.name.rfind("health.", 0) == 0) health_spans++;
  }
  ASSERT_GT(health_spans, 0u);

  RunHealthReport replayed = ReplayHealth(run.spans);
  EXPECT_EQ(replayed.ToLines(), run.health_lines);
}

TEST(TraceHealthTest, OutcomeSpansCoverEveryScopedConcept) {
  FaultedRun run = RunFaulted(/*threads=*/4);
  // Every concept in scope gets a stage.outcome span per supervised stage
  // pass — healthy ones included — so span coverage counting works.
  size_t outcome_spans = 0;
  for (const TraceSpan& s : run.spans) {
    if (s.name == "stage.outcome") {
      outcome_spans++;
      EXPECT_NE(s.concept_id, TraceSpan::kNoConcept);
      EXPECT_FALSE(s.outcome.empty());
    }
  }
  EXPECT_GT(outcome_spans, 0u);
}

TEST(TraceHealthTest, DeterministicSpanFieldsAreThreadCountInvariant) {
  FaultedRun one = RunFaulted(/*threads=*/1);
  FaultedRun four = RunFaulted(/*threads=*/4);
  ASSERT_EQ(one.spans.size(), four.spans.size());
  for (size_t i = 0; i < one.spans.size(); ++i) {
    EXPECT_EQ(one.spans[i].CanonicalLine(), four.spans[i].CanonicalLine())
        << "span " << i << " diverges across thread counts";
  }
  EXPECT_EQ(one.health_lines, four.health_lines);
}

TEST(TraceHealthTest, UnsupervisedCleanTracesTrainAndScoreWithoutChangingOutput) {
  ExperimentConfig config = PaperScaleConfig(0.05);
  auto experiment = Experiment::Build(config);
  std::vector<ConceptId> scope = experiment->EvalConcepts();
  CleanerOptions options;
  options.max_rounds = 2;
  DpCleaner cleaner(&experiment->corpus().sentences,
                    experiment->MakeVerifiedSource(),
                    experiment->world().num_concepts(), options);

  struct Run {
    CleaningReport report;
    std::string image;
    std::vector<TraceSpan> spans;
  };
  auto clean = [&](bool traced) {
    Run run;
    KnowledgeBase kb = experiment->Extract();
    GlobalTrace().Clear();
    GlobalTrace().Enable(traced);
    run.report = cleaner.Clean(&kb, scope);
    GlobalTrace().Enable(false);
    run.spans = GlobalTrace().Snapshot();
    GlobalTrace().Clear();
    Result<std::string> image = BuildSnapshotImage(
        CompileSnapshotParts(kb, experiment->world(), nullptr, SnapshotOptions{}));
    EXPECT_TRUE(image.ok()) << image.status().ToString();
    if (image.ok()) run.image = std::move(*image);
    return run;
  };
  Run plain = clean(/*traced=*/false);
  Run traced = clean(/*traced=*/true);

  EXPECT_TRUE(plain.spans.empty());
  size_t train_spans = 0, score_spans = 0, adjudicate_spans = 0;
  uint64_t checks = 0, rolled_back = 0;
  for (const TraceSpan& s : traced.spans) {
    if (s.name == "detector.train") {
      ++train_spans;
      EXPECT_EQ(TagValue(s, "kind"), "semi-supervised-multitask");
      EXPECT_EQ(s.outcome, "ok");
    } else if (s.name == "score.batch") {
      ++score_spans;
      EXPECT_EQ(TagValue(s, "concepts"), std::to_string(scope.size()));
    } else if (s.name == "adjudicate.batch") {
      ++adjudicate_spans;
      checks += std::stoull(TagValue(s, "checks"));
      rolled_back += std::stoull(TagValue(s, "rolled_back"));
    }
  }
  ASSERT_GT(traced.report.rounds, 0);
  EXPECT_EQ(train_spans, static_cast<size_t>(traced.report.rounds));
  EXPECT_EQ(score_spans, static_cast<size_t>(traced.report.rounds));
  // One Eq. 21 span per round; its tags add up to the report's totals.
  EXPECT_EQ(adjudicate_spans, static_cast<size_t>(traced.report.rounds));
  EXPECT_EQ(checks, traced.report.sentence_checks.size());
  EXPECT_EQ(rolled_back, traced.report.records_rolled_back);

  EXPECT_FALSE(plain.image.empty());
  EXPECT_EQ(traced.image, plain.image);
  EXPECT_EQ(traced.report.accidental_dps, plain.report.accidental_dps);
  EXPECT_EQ(traced.report.intentional_dps, plain.report.intentional_dps);
  EXPECT_EQ(traced.report.records_rolled_back, plain.report.records_rolled_back);
}

}  // namespace
}  // namespace semdrift
