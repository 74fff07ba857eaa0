#include <gtest/gtest.h>

#include <unordered_set>

#include "dp/cleaner.h"
#include "dp/sentence_check.h"
#include "eval/experiment.h"
#include "eval/metrics.h"

namespace semdrift {
namespace {

TEST(SentenceCheckTest, PaperExampleDecision) {
  // The paper's Example 1 situation: sentence "food from animals such as
  // pork, beef and chicken", wrongly extracted under animal via the
  // Intentional DP (chicken isA animal). With pork/beef/chicken solidly
  // established under food and only weakly under animal, Eq. 21 must score
  // food above animal, flagging the extraction for rollback.
  KnowledgeBase kb;
  ConceptId food(0);
  ConceptId animal(1);
  InstanceId pork(0), beef(1), chicken(2), dog(3);
  uint32_t sid = 0;
  // Food core: pork, beef, chicken all frequent.
  for (int i = 0; i < 5; ++i) kb.ApplyExtraction(SentenceId(sid++), food, {pork}, {}, 1);
  for (int i = 0; i < 4; ++i) kb.ApplyExtraction(SentenceId(sid++), food, {beef}, {}, 1);
  for (int i = 0; i < 6; ++i)
    kb.ApplyExtraction(SentenceId(sid++), food, {chicken}, {}, 1);
  // Animal core: chicken and dog; pork/beef only via one drifted record.
  for (int i = 0; i < 6; ++i)
    kb.ApplyExtraction(SentenceId(sid++), animal, {chicken}, {}, 1);
  for (int i = 0; i < 6; ++i) kb.ApplyExtraction(SentenceId(sid++), animal, {dog}, {}, 1);
  kb.ApplyExtraction(SentenceId(sid++), animal, {pork, beef, chicken}, {chicken}, 2);

  ScoreCache scores(&kb, RankModel::kRandomWalk);
  Sentence s;
  s.candidate_concepts = {food, animal};
  s.candidate_instances = {pork, beef, chicken};
  double food_score = SentenceConceptScore(s, food, &scores);
  double animal_score = SentenceConceptScore(s, animal, &scores);
  EXPECT_GT(food_score, animal_score);
  EXPECT_EQ(BestAttachment(s, &scores), food);
  // Eq. 21 scores are sums of per-instance ratios, bounded by |Es|.
  EXPECT_LE(food_score, 3.0 + 1e-9);
  EXPECT_GE(animal_score, 0.0);
  // Ratios per instance sum to 1 across the two candidates (when any
  // candidate scores the instance).
  EXPECT_NEAR(food_score + animal_score, 3.0, 1e-9);
}

TEST(SentenceCheckTest, SingleCandidateGetsEverything) {
  KnowledgeBase kb;
  ConceptId c(0);
  InstanceId e(0);
  kb.ApplyExtraction(SentenceId(0), c, {e}, {}, 1);
  ScoreCache scores(&kb, RankModel::kRandomWalk);
  Sentence s;
  s.candidate_concepts = {c};
  s.candidate_instances = {e};
  EXPECT_NEAR(SentenceConceptScore(s, c, &scores), 1.0, 1e-9);
  EXPECT_EQ(BestAttachment(s, &scores), c);
}

TEST(SentenceCheckTest, UnknownInstancesContributeNothing) {
  KnowledgeBase kb;
  ConceptId c(0);
  kb.ApplyExtraction(SentenceId(0), c, {InstanceId(0)}, {}, 1);
  ScoreCache scores(&kb, RankModel::kRandomWalk);
  Sentence s;
  s.candidate_concepts = {c, ConceptId(1)};
  s.candidate_instances = {InstanceId(7), InstanceId(8)};  // Never extracted.
  EXPECT_EQ(SentenceConceptScore(s, c, &scores), 0.0);
  // All-zero tie resolves to the first (head) candidate.
  EXPECT_EQ(BestAttachment(s, &scores), c);
}

TEST(SmoothedVoteTest, WeakLoneEvidenceGetsWeakVote) {
  KnowledgeBase kb;
  ConceptId a(0), b(1);
  InstanceId strong(0), weak(1), filler(2);
  uint32_t sid = 0;
  for (int i = 0; i < 10; ++i)
    kb.ApplyExtraction(SentenceId(sid++), a, {strong}, {}, 1);
  for (int i = 0; i < 10; ++i)
    kb.ApplyExtraction(SentenceId(sid++), a, {filler}, {}, 1);
  // `weak` known only under b, via a single late record.
  kb.ApplyExtraction(SentenceId(sid++), b, {strong}, {}, 1);
  kb.ApplyExtraction(SentenceId(sid++), b, {filler}, {}, 1);
  kb.ApplyExtraction(SentenceId(sid++), b, {InstanceId(9)}, {}, 1);
  kb.ApplyExtraction(SentenceId(sid++), b, {weak}, {strong}, 2);
  ScoreCache scores(&kb, RankModel::kRandomWalk);
  Sentence s;
  s.candidate_concepts = {a, b};
  s.candidate_instances = {weak};
  // Raw Eq. 21 would give b the full vote (only b knows `weak`); the
  // smoothed vote stays below 1 and reflects the weak evidence.
  SmoothedVote vote = SmoothedAttachmentVote(s, b, &scores, /*alpha=*/0.5);
  EXPECT_LT(vote.average_vote_for_extracted, 0.75);
  EXPECT_GT(vote.average_vote_for_extracted, 0.0);
}

TEST(SmoothedVoteTest, StrongEvidenceGetsStrongVote) {
  KnowledgeBase kb;
  ConceptId a(0), b(1);
  InstanceId popular(0);
  uint32_t sid = 0;
  for (int i = 0; i < 10; ++i)
    kb.ApplyExtraction(SentenceId(sid++), a, {popular}, {}, 1);
  kb.ApplyExtraction(SentenceId(sid++), a, {InstanceId(1)}, {}, 1);
  kb.ApplyExtraction(SentenceId(sid++), b, {InstanceId(2)}, {}, 1);
  ScoreCache scores(&kb, RankModel::kRandomWalk);
  Sentence s;
  s.candidate_concepts = {a, b};
  s.candidate_instances = {popular};
  SmoothedVote vote = SmoothedAttachmentVote(s, a, &scores, 0.5);
  EXPECT_EQ(vote.best, a);
  EXPECT_GT(vote.average_vote_for_extracted, 0.5);
}

/// End-to-end cleaning on a small generated experiment: precision must rise
/// substantially and most correct pairs must survive.
TEST(DpCleanerEndToEndTest, CleaningImprovesPrecision) {
  ExperimentConfig config = PaperScaleConfig(0.08);
  auto experiment = Experiment::Build(config);
  KnowledgeBase kb = experiment->Extract();
  std::vector<ConceptId> scope = experiment->EvalConcepts();
  std::vector<IsAPair> population = LivePairsOf(kb, scope);
  double before = LivePairPrecision(experiment->truth(), kb, scope);

  CleanerOptions options;
  options.max_rounds = 4;
  DpCleaner cleaner(&experiment->corpus().sentences,
                    experiment->MakeVerifiedSource(),
                    experiment->world().num_concepts(), options);
  CleaningReport report = cleaner.Clean(&kb, scope);
  double after = LivePairPrecision(experiment->truth(), kb, scope);

  EXPECT_GT(after, before + 0.05);
  EXPECT_GT(report.records_rolled_back, 0u);
  EXPECT_EQ(report.live_pairs_after, kb.num_live_pairs());

  std::unordered_set<IsAPair, IsAPairHash> removed;
  for (const IsAPair& pair : population) {
    if (!kb.Contains(pair)) removed.insert(pair);
  }
  CleaningMetrics metrics = EvaluateCleaning(experiment->truth(), population, removed);
  EXPECT_GT(metrics.perror, 0.5);
  EXPECT_GT(metrics.rcorr, 0.8);
}

TEST(DpCleanerEndToEndTest, ReportIsConsistent) {
  ExperimentConfig config = PaperScaleConfig(0.08);
  auto experiment = Experiment::Build(config);
  KnowledgeBase kb = experiment->Extract();
  std::vector<ConceptId> scope = experiment->EvalConcepts();
  CleanerOptions options;
  options.max_rounds = 2;
  DpCleaner cleaner(&experiment->corpus().sentences,
                    experiment->MakeVerifiedSource(),
                    experiment->world().num_concepts(), options);
  CleaningReport report = cleaner.Clean(&kb, scope);
  EXPECT_GE(report.live_pairs_before, report.live_pairs_after);
  EXPECT_LE(report.rounds, 2);
  // Flagged DP lists are deduplicated.
  std::unordered_set<IsAPair, IsAPairHash> acc(report.accidental_dps.begin(),
                                               report.accidental_dps.end());
  EXPECT_EQ(acc.size(), report.accidental_dps.size());
  // Sentence-check decisions reference real, ambiguous sentences.
  for (const auto& decision : report.sentence_checks) {
    const ExtractionRecord& record = kb.record(decision.record_id);
    const Sentence& sentence =
        experiment->corpus().sentences.Get(record.sentence);
    EXPECT_GE(sentence.candidate_concepts.size(), 2u);
  }
}

TEST(DpCleanerEndToEndTest, UngatedModeRemovesMore) {
  ExperimentConfig config = PaperScaleConfig(0.08);
  auto experiment = Experiment::Build(config);
  std::vector<ConceptId> scope = experiment->EvalConcepts();

  KnowledgeBase gated_kb = experiment->Extract();
  CleanerOptions gated;
  gated.max_rounds = 2;
  DpCleaner gated_cleaner(&experiment->corpus().sentences,
                          experiment->MakeVerifiedSource(),
                          experiment->world().num_concepts(), gated);
  gated_cleaner.Clean(&gated_kb, scope);

  KnowledgeBase raw_kb = experiment->Extract();
  CleanerOptions raw = gated;
  raw.eq21_gate_accidental = false;
  DpCleaner raw_cleaner(&experiment->corpus().sentences,
                        experiment->MakeVerifiedSource(),
                        experiment->world().num_concepts(), raw);
  raw_cleaner.Clean(&raw_kb, scope);

  EXPECT_LE(raw_kb.num_live_pairs(), gated_kb.num_live_pairs());
}

/// Byte-level fingerprint of a cleaning run: the KB's provenance log plus
/// the report's counts, flagged pairs and Eq. 21 decisions.
std::string Fingerprint(const KnowledgeBase& kb, const CleaningReport& report) {
  std::string out = "rounds=" + std::to_string(report.rounds) +
                    " rolled=" + std::to_string(report.records_rolled_back) +
                    " live=" + std::to_string(report.live_pairs_before) + "->" +
                    std::to_string(report.live_pairs_after) + "\n";
  for (const IsAPair& pair : report.accidental_dps) {
    out += "A " + std::to_string(pair.concept_id.value) + "," +
           std::to_string(pair.instance.value) + "\n";
  }
  for (const IsAPair& pair : report.intentional_dps) {
    out += "I " + std::to_string(pair.concept_id.value) + "," +
           std::to_string(pair.instance.value) + "\n";
  }
  for (const SentenceCheckDecision& d : report.sentence_checks) {
    out += "S " + std::to_string(d.record_id) + "," +
           std::to_string(d.extracted_concept.value) + "," +
           std::to_string(d.best_concept.value) + "," + (d.rolled_back ? "1" : "0") +
           "\n";
  }
  for (const ExtractionRecord& r : kb.records()) {
    out += "R " + std::to_string(r.id) + "," + std::to_string(r.sentence.value) +
           "," + std::to_string(r.concept_id.value) + "," + (r.rolled_back ? "1" : "0") +
           "\n";
  }
  return out;
}

/// A numeric failure inside the default detector (a negative local ridge
/// makes every manifold local inverse fail) sends Clean() down the fallback
/// ladder: the run matches one that trains the ladder's first rung directly.
TEST(DpCleanerEndToEndTest, ManifoldFailureTakesTheAdHocLadder) {
  ExperimentConfig config = PaperScaleConfig(0.05);
  auto experiment = Experiment::Build(config);
  std::vector<ConceptId> scope = experiment->EvalConcepts();
  auto clean = [&](const CleanerOptions& options) {
    DpCleaner cleaner(&experiment->corpus().sentences,
                      experiment->MakeVerifiedSource(),
                      experiment->world().num_concepts(), options);
    KnowledgeBase kb = experiment->Extract();
    CleaningReport report = cleaner.Clean(&kb, scope);
    return Fingerprint(kb, report);
  };
  CleanerOptions broken;
  broken.max_rounds = 2;
  broken.train.manifold.local_lambda = -1.0;
  CleanerOptions ladder = broken;
  ladder.detector = DetectorKind::kAdHoc3;

  std::string fell_back = clean(broken);
  std::string direct = clean(ladder);
  // The ad-hoc detector must actually clean something, or equality would
  // hold for a clean that stopped before its first round.
  ASSERT_EQ(direct.find("rounds=0 "), std::string::npos);
  ASSERT_EQ(direct.find("rolled=0 "), std::string::npos);
  EXPECT_EQ(fell_back, direct);
}

}  // namespace
}  // namespace semdrift
