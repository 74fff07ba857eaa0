#include "dp/cleaner.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "dp/sentence_check.h"
#include "obs/trace.h"
#include "rank/scorers.h"
#include "util/logging.h"

namespace semdrift {

namespace {

/// One flagged (pair, DP type) detection from a classification pass.
struct Detection {
  IsAPair pair;
  DpClass type;
};

/// Per-concept classification of every live instance, guarded; detections
/// flatten in scope order, and instances with a non-finite feature vector
/// are dropped with provenance instead of classified.
Status Classify(const KnowledgeBase& kb, const FeatureExtractor& features,
                const DpDetector& detector, const std::vector<ConceptId>& scope,
                Supervisor* supervisor, std::vector<Detection>* out) {
  struct Classified {
    std::vector<Detection> detections;
    std::vector<DroppedInstance> drops;
  };
  ScopedSpan span(&GlobalTrace(), "score.batch");
  span.AddTag("concepts", static_cast<uint64_t>(scope.size()));
  auto body = [&](ConceptId c, int attempt) {
    Classified classified;
    bool poison = supervisor->NanFaultActive(PipelineStage::kDetectorScore, c.value,
                                             attempt);
    for (InstanceId e : kb.LiveInstancesOf(c)) {
      PollCancellation("detector score");
      FeatureVector f = features.Extract(c, e);
      if (poison) {
        f[0] = std::numeric_limits<double>::quiet_NaN();
        poison = false;
      }
      int bad = FirstNonFiniteIndex(f);
      if (bad >= 0) {
        classified.drops.push_back(DroppedInstance{
            c.value, e.value, PipelineStage::kDetectorScore,
            "non-finite feature f" + std::to_string(bad + 1)});
        continue;
      }
      DpClass type = detector.Classify(c, f);
      if (type == DpClass::kAccidentalDP || type == DpClass::kIntentionalDP) {
        classified.detections.push_back(Detection{IsAPair{c, e}, type});
      }
    }
    return classified;
  };
  return supervisor->RunGuardedEach<Classified>(
      PipelineStage::kDetectorScore, scope, body, {},
      [&](ConceptId, Classified&& classified) {
        for (const DroppedInstance& drop : classified.drops) {
          supervisor->health()->RecordDrop(drop);
        }
        out->insert(out->end(), classified.detections.begin(),
                    classified.detections.end());
      });
}

}  // namespace

DpCleaner::DpCleaner(const SentenceStore* sentences, VerifiedSource verified,
                     size_t num_concepts, CleanerOptions options)
    : sentences_(sentences),
      verified_(std::move(verified)),
      num_concepts_(num_concepts),
      options_(std::move(options)) {}

CleaningReport DpCleaner::Clean(KnowledgeBase* kb,
                                const std::vector<ConceptId>& scope) const {
  // The pass-through policy: no deadline, retries, quarantine or faults.
  SupervisorOptions pass_through;
  pass_through.stage_deadline_ms = 0;
  pass_through.max_retries = 0;
  pass_through.quarantine = false;
  Supervisor supervisor(pass_through);
  SupervisedCleanHooks hooks;
  hooks.supervisor = &supervisor;
  Result<CleaningReport> result = CleanSupervised(kb, scope, hooks);
  if (!result.ok()) throw std::runtime_error(result.status().ToString());
  if (!supervisor.health()->empty()) {
    SD_LOG(kWarning) << "DP cleaning degraded:\n" << supervisor.health()->ToTable();
  }
  return *std::move(result);
}

CleaningReport DpCleaner::CleanDirty(KnowledgeBase* kb,
                                     const std::vector<ConceptId>& dirty,
                                     const std::vector<ConceptId>& within) const {
  std::vector<ConceptId> scope;
  if (within.empty()) {
    scope = dirty;
  } else {
    std::unordered_set<uint32_t> allowed;
    allowed.reserve(within.size());
    for (ConceptId c : within) allowed.insert(c.value);
    for (ConceptId c : dirty) {
      if (allowed.count(c.value) != 0) scope.push_back(c);
    }
  }
  std::sort(scope.begin(), scope.end(),
            [](ConceptId a, ConceptId b) { return a.value < b.value; });
  scope.erase(std::unique(scope.begin(), scope.end(),
                          [](ConceptId a, ConceptId b) { return a.value == b.value; }),
              scope.end());
  if (scope.empty()) {
    CleaningReport report;
    report.live_pairs_before = kb->num_live_pairs();
    report.live_pairs_after = report.live_pairs_before;
    return report;
  }
  return Clean(kb, scope);
}

Result<CleaningReport> DpCleaner::CleanSupervised(
    KnowledgeBase* kb, const std::vector<ConceptId>& scope,
    const SupervisedCleanHooks& hooks) const {
  if (hooks.supervisor == nullptr) {
    return Status::InvalidArgument("CleanSupervised requires a supervisor");
  }
  Supervisor* supervisor = hooks.supervisor;
  CleaningReport report;
  report.live_pairs_before = kb->num_live_pairs();
  std::unordered_set<IsAPair, IsAPairHash> seen_accidental;
  std::unordered_set<IsAPair, IsAPairHash> seen_intentional;
  std::unique_ptr<DpDetector> detector;

  // Spans recorded during cleaning carry the round as their epoch; reset on
  // every exit path so later spans (snapshot write, serve) are not
  // attributed to the last round.
  struct EpochReset {
    ~EpochReset() { GlobalTrace().SetEpoch(-1); }
  } epoch_reset;
  for (int round = hooks.first_round; round <= options_.max_rounds; ++round) {
    GlobalTrace().SetEpoch(round);
    ScopedSpan round_span(&GlobalTrace(), "clean.round");
    // Quarantined concepts drop out of the scope between rounds/stages only
    // — within a stage the scope is fixed, which keeps surviving concepts'
    // work independent of when a doomed concept's guard fired.
    std::vector<ConceptId> live_scope = supervisor->Surviving(scope);
    if (live_scope.empty()) break;

    // Fresh views of the (possibly already partially cleaned) KB.
    MutexIndex mutex(*kb, num_concepts_, options_.mutex);
    ScoreCache scores(kb, options_.score_model);
    // Bulk warm-up: build + walk every in-scope concept graph across the
    // thread pool now, so feature extraction below hits a frozen cache.
    Status warmed = scores.WarmGuarded(live_scope, supervisor);
    if (!warmed.ok()) return warmed;
    live_scope = supervisor->Surviving(live_scope);
    if (live_scope.empty()) break;
    FeatureExtractor features(kb, &mutex, &scores);
    SeedLabeler seeds(kb, &mutex, verified_, options_.seeds);

    if (options_.retrain_each_round || detector == nullptr) {
      Result<TrainingData> data = CollectTrainingDataSupervised(
          *kb, &features, seeds, live_scope, supervisor);
      if (!data.ok()) return data.status();
      live_scope = supervisor->Surviving(live_scope);
      if (live_scope.empty()) break;
      // No labeled row keeps the previous round's detector; labeled rows
      // that train no detector take the ad-hoc ladder.
      Result<SupervisedTrainResult> trained =
          TrainDetectorSupervised(options_.detector, *data, options_.train, supervisor);
      if (!trained.ok()) return trained.status();
      if (trained->detector != nullptr) {
        detector = std::move(trained->detector);
      } else if (detector == nullptr) {
        SD_LOG(kWarning) << "DP cleaning: "
                         << (trained->detail.empty() ? "no labeled seeds"
                                                     : trained->detail)
                         << "; nothing to do";
        break;
      }
    }

    // Classify every live instance in scope against this round's features.
    std::vector<Detection> detections;
    Status classified =
        Classify(*kb, features, *detector, live_scope, supervisor, &detections);
    if (!classified.ok()) return classified;

    size_t rolled_this_round = 0;
    // Eq. 21 adjudication of one record; returns rolled-back count.
    auto adjudicate = [&](uint32_t record_id) -> size_t {
      const ExtractionRecord& record = kb->record(record_id);
      if (record.rolled_back) return 0;
      const Sentence& sentence = sentences_->Get(record.sentence);
      if (sentence.candidate_concepts.size() < 2) return 0;
      SmoothedVote vote = SmoothedAttachmentVote(sentence, record.concept_id,
                                                 &scores, options_.eq21_smoothing);
      // Two arbitration views: the raw Eq. 21 argmax (paper-exact; nearly
      // zero false positives) and the smoothed, concept-size-calibrated vote
      // with its weak-evidence floor (Property 4). A disagreement from
      // either rolls the record back.
      ConceptId raw_best = BestAttachment(sentence, &scores);
      SentenceCheckDecision decision;
      decision.record_id = record_id;
      decision.extracted_concept = record.concept_id;
      decision.best_concept = vote.best;
      decision.rolled_back =
          vote.best != record.concept_id || raw_best != record.concept_id ||
          vote.average_vote_for_extracted < options_.eq21_min_average_vote;
      report.sentence_checks.push_back(decision);
      if (!decision.rolled_back) return 0;
      return kb->RollbackRecord(record_id, options_.cascade);
    };

    {
      // One span per round over the Eq. 21 arbitration and its rollbacks.
      ScopedSpan adjudicate_span(&GlobalTrace(), "adjudicate.batch");
      size_t checks_before = report.sentence_checks.size();
      for (const Detection& detection : detections) {
        if (!kb->Contains(detection.pair)) continue;  // Died in an earlier cascade.
        if (detection.type == DpClass::kAccidentalDP) {
          if (seen_accidental.insert(detection.pair).second) {
            report.accidental_dps.push_back(detection.pair);
          }
          if (options_.eq21_gate_accidental) {
            // Arbitrate every extraction the DP activated...
            for (uint32_t record_id : kb->LiveRecordsTriggeredBy(detection.pair)) {
              rolled_this_round += adjudicate(record_id);
            }
            // ...and every extraction that produced the pair. Ambiguous
            // producers get the Eq. 21 check; an unambiguous producer is
            // rolled back only when it is the pair's sole support (the
            // accidental single-sentence signature, Property 3).
            const PairStats* stats = kb->Find(detection.pair);
            if (stats != nullptr) {
              std::vector<uint32_t> producers = stats->producing_records;
              for (uint32_t record_id : producers) {
                const ExtractionRecord& record = kb->record(record_id);
                if (record.rolled_back) continue;
                const Sentence& sentence = sentences_->Get(record.sentence);
                if (sentence.candidate_concepts.size() >= 2) {
                  rolled_this_round += adjudicate(record_id);
                } else if (kb->Count(detection.pair) == 1) {
                  rolled_this_round +=
                      kb->RollbackRecord(record_id, options_.cascade);
                }
              }
            }
          } else {
            // The paper's unconditional treatment: drop the DP and everything
            // it activated.
            rolled_this_round +=
                kb->RollbackTriggeredBy(detection.pair, options_.cascade);
            rolled_this_round += kb->RemovePair(detection.pair, options_.cascade);
          }
        } else {
          if (seen_intentional.insert(detection.pair).second) {
            report.intentional_dps.push_back(detection.pair);
          }
          // Eq. 21 adjudication of every live extraction this DP triggered.
          for (uint32_t record_id : kb->LiveRecordsTriggeredBy(detection.pair)) {
            rolled_this_round += adjudicate(record_id);
          }
        }
      }

      adjudicate_span.AddTag(
          "checks", static_cast<uint64_t>(report.sentence_checks.size() - checks_before));
      adjudicate_span.AddTag("rolled_back", static_cast<uint64_t>(rolled_this_round));
    }

    report.rounds = round;
    report.records_rolled_back += rolled_this_round;
    round_span.AddTag("scope", static_cast<uint64_t>(live_scope.size()));
    round_span.AddTag("detections", static_cast<uint64_t>(detections.size()));
    round_span.AddTag("rolled_back", static_cast<uint64_t>(rolled_this_round));
    if (hooks.on_round) {
      Status checkpointed = hooks.on_round(round, *kb);
      if (!checkpointed.ok()) return checkpointed;
    }
    if (rolled_this_round == 0) break;
  }

  report.live_pairs_after = kb->num_live_pairs();
  return report;
}

}  // namespace semdrift
