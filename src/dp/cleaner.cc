#include "dp/cleaner.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "dp/sentence_check.h"
#include "obs/trace.h"
#include "rank/scorers.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace semdrift {

namespace {

/// One flagged (pair, DP type) detection from a classification pass.
struct Detection {
  IsAPair pair;
  DpClass type;
};

/// Supervised score warm-up: one guarded checked walk per concept, results
/// inserted into the cache in scope order. A non-converged walk degrades the
/// concept (capped scores + flag); a walk that throws, stalls past its
/// deadline or emits NaN exhausts its retries and quarantines the concept.
Status WarmSupervised(const KnowledgeBase& kb, ScoreCache* scores,
                      RankModel model, const std::vector<ConceptId>& scope,
                      Supervisor* supervisor) {
  struct Slot {
    ConceptScores value;
    StageOutcome outcome;
  };
  ScopedSpan span(&GlobalTrace(), "warm.batch");
  span.AddTag("concepts", static_cast<uint64_t>(scope.size()));
  std::vector<Slot> slots = ParallelMap<Slot>(scope.size(), [&](size_t i) {
    ConceptId c = scope[i];
    Slot slot;
    std::function<ConceptScores(int)> body = [&, c](int attempt) {
      ConceptScores computed = ScoreConceptChecked(kb, c, model);
      if (supervisor->NanFaultActive(PipelineStage::kScoreWarm, c.value, attempt) &&
          !computed.scores.empty()) {
        computed.scores.begin()->second = std::numeric_limits<double>::quiet_NaN();
      }
      return computed;
    };
    std::function<std::string(const ConceptScores&)> validate =
        [](const ConceptScores& computed) {
          for (const auto& [instance, score] : computed.scores) {
            (void)instance;
            if (!(score == score) || score - score != 0.0) {
              return std::string("non-finite score in converged walk");
            }
          }
          return std::string();
        };
    ConceptScores value;
    if (supervisor->RunGuarded<ConceptScores>(PipelineStage::kScoreWarm, c.value,
                                              body, validate, &value,
                                              &slot.outcome)) {
      slot.value = std::move(value);
    }
    return slot;
  });
  for (size_t i = 0; i < scope.size(); ++i) {
    Status merged = supervisor->MergeOutcome(PipelineStage::kScoreWarm,
                                             scope[i].value, slots[i].outcome);
    if (!merged.ok()) return merged;
    if (!slots[i].outcome.ok) continue;  // Quarantined: never enters the cache.
    if (!slots[i].value.converged) {
      supervisor->health()->Record(
          scope[i].value, ConceptOutcome::kDegraded, 0, PipelineStage::kScoreWarm,
          "walk did not converge after " + std::to_string(slots[i].value.iterations) +
              " iterations; scores capped to [0, 1]");
    }
    scores->Insert(scope[i], std::move(slots[i].value.scores));
  }
  return Status::OK();
}

/// Supervised classification: per-concept guarded passes, detections
/// flattened in scope order (matching the unsupervised path), bad
/// feature vectors dropped with provenance.
Status ClassifySupervised(const KnowledgeBase& kb, const FeatureExtractor& features,
                          const DpDetector& detector,
                          const std::vector<ConceptId>& scope,
                          Supervisor* supervisor, std::vector<Detection>* out) {
  struct Payload {
    std::vector<Detection> detections;
    std::vector<DroppedInstance> drops;
  };
  struct Slot {
    Payload payload;
    StageOutcome outcome;
  };
  ScopedSpan span(&GlobalTrace(), "score.batch");
  span.AddTag("concepts", static_cast<uint64_t>(scope.size()));
  std::vector<Slot> slots = ParallelMap<Slot>(scope.size(), [&](size_t i) {
    ConceptId c = scope[i];
    Slot slot;
    std::function<Payload(int)> body = [&, c](int attempt) {
      Payload payload;
      bool poison = supervisor->NanFaultActive(PipelineStage::kDetectorScore,
                                               c.value, attempt);
      for (InstanceId e : kb.LiveInstancesOf(c)) {
        PollCancellation("detector score");
        FeatureVector f = features.Extract(c, e);
        if (poison) {
          f[0] = std::numeric_limits<double>::quiet_NaN();
          poison = false;
        }
        int bad = FirstNonFiniteIndex(f);
        if (bad >= 0) {
          payload.drops.push_back(DroppedInstance{
              c.value, e.value, PipelineStage::kDetectorScore,
              "non-finite feature f" + std::to_string(bad + 1)});
          continue;
        }
        DpClass type = detector.Classify(c, f);
        if (type == DpClass::kAccidentalDP || type == DpClass::kIntentionalDP) {
          payload.detections.push_back(Detection{IsAPair{c, e}, type});
        }
      }
      return payload;
    };
    Payload value;
    if (supervisor->RunGuarded<Payload>(PipelineStage::kDetectorScore, c.value,
                                        body, {}, &value, &slot.outcome)) {
      slot.payload = std::move(value);
    }
    return slot;
  });
  for (size_t i = 0; i < scope.size(); ++i) {
    Status merged = supervisor->MergeOutcome(PipelineStage::kDetectorScore,
                                             scope[i].value, slots[i].outcome);
    if (!merged.ok()) return merged;
    if (!slots[i].outcome.ok) continue;  // Quarantined: no detections used.
    for (const DroppedInstance& drop : slots[i].payload.drops) {
      supervisor->health()->RecordDrop(drop);
    }
    for (const Detection& detection : slots[i].payload.detections) {
      out->push_back(detection);
    }
  }
  return Status::OK();
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
  // The unsupervised path cannot fail (no guard ever reports an error).
  Result<CleaningReport> result = CleanImpl(kb, scope, nullptr);
  return *result;
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
  return CleanImpl(kb, scope, &hooks);
}

Result<CleaningReport> DpCleaner::CleanImpl(KnowledgeBase* kb,
                                            const std::vector<ConceptId>& scope,
                                            const SupervisedCleanHooks* hooks) const {
  Supervisor* supervisor = hooks != nullptr ? hooks->supervisor : nullptr;
  CleaningReport report;
  report.live_pairs_before = kb->num_live_pairs();
  std::unordered_set<IsAPair, IsAPairHash> seen_accidental;
  std::unordered_set<IsAPair, IsAPairHash> seen_intentional;
  std::unique_ptr<DpDetector> detector;

  int first_round = hooks != nullptr ? hooks->first_round : 1;
  // Spans recorded during cleaning carry the round as their epoch; reset on
  // every exit path so later spans (snapshot write, serve) are not
  // attributed to the last round.
  struct EpochReset {
    ~EpochReset() { GlobalTrace().SetEpoch(-1); }
  } epoch_reset;
  for (int round = first_round; round <= options_.max_rounds; ++round) {
    GlobalTrace().SetEpoch(round);
    ScopedSpan round_span(&GlobalTrace(), "clean.round");
    // Quarantined concepts drop out of the scope between rounds/stages only
    // — within a stage the scope is fixed, which keeps surviving concepts'
    // work independent of when a doomed concept's guard fired.
    std::vector<ConceptId> live_scope =
        supervisor != nullptr ? supervisor->Surviving(scope) : scope;
    if (live_scope.empty()) break;

    // Fresh views of the (possibly already partially cleaned) KB.
    MutexIndex mutex(*kb, num_concepts_, options_.mutex);
    ScoreCache scores(kb, options_.score_model);
    // Bulk warm-up: build + walk every in-scope concept graph across the
    // thread pool now, so feature extraction below hits a frozen cache.
    if (supervisor != nullptr) {
      Status warmed = WarmSupervised(*kb, &scores, options_.score_model,
                                     live_scope, supervisor);
      if (!warmed.ok()) return warmed;
      live_scope = supervisor->Surviving(live_scope);
      if (live_scope.empty()) break;
    } else {
      scores.Warm(live_scope);
    }
    FeatureExtractor features(kb, &mutex, &scores);
    SeedLabeler seeds(kb, &mutex, verified_, options_.seeds);

    if (options_.retrain_each_round || detector == nullptr) {
      std::unique_ptr<DpDetector> trained;
      if (supervisor != nullptr) {
        Result<TrainingData> data = CollectTrainingDataSupervised(
            *kb, &features, seeds, live_scope, supervisor);
        if (!data.ok()) return data.status();
        live_scope = supervisor->Surviving(live_scope);
        if (live_scope.empty()) break;
        Result<SupervisedTrainResult> train_result =
            TrainDetectorSupervised(options_.detector, *data, options_.train,
                                    supervisor);
        if (!train_result.ok()) return train_result.status();
        trained = std::move(train_result->detector);
      } else {
        TrainingData data = CollectTrainingData(*kb, &features, seeds, live_scope);
        ScopedSpan train_span(&GlobalTrace(), "detector.train");
        train_span.AddTag("kind", DetectorKindName(options_.detector));
        trained = TrainDetector(options_.detector, data, options_.train);
        train_span.SetOutcome(trained != nullptr ? "ok" : "no-detector");
      }
      if (trained != nullptr) {
        detector = std::move(trained);
      } else if (detector == nullptr) {
        SD_LOG(kWarning) << "DP cleaning: no labeled seeds; nothing to do";
        break;
      }
    }

    // Classify every live instance in scope against this round's features.
    std::vector<Detection> detections;
    if (supervisor != nullptr) {
      Status classified = ClassifySupervised(*kb, features, *detector, live_scope,
                                             supervisor, &detections);
      if (!classified.ok()) return classified;
    } else {
      // Concepts classify independently; detections flatten in scope order.
      ScopedSpan span(&GlobalTrace(), "score.batch");
      span.AddTag("concepts", static_cast<uint64_t>(live_scope.size()));
      std::vector<std::vector<Detection>> per_concept =
          ParallelMap<std::vector<Detection>>(live_scope.size(), [&](size_t i) {
            ConceptId c = live_scope[i];
            std::vector<Detection> found;
            for (InstanceId e : kb->LiveInstancesOf(c)) {
              DpClass type = detector->Classify(c, features.Extract(c, e));
              if (type == DpClass::kAccidentalDP || type == DpClass::kIntentionalDP) {
                found.push_back(Detection{IsAPair{c, e}, type});
              }
            }
            return found;
          });
      for (const std::vector<Detection>& found : per_concept) {
        detections.insert(detections.end(), found.begin(), found.end());
      }
    }

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

    report.rounds = round;
    report.records_rolled_back += rolled_this_round;
    round_span.AddTag("scope", static_cast<uint64_t>(live_scope.size()));
    round_span.AddTag("detections", static_cast<uint64_t>(detections.size()));
    round_span.AddTag("rolled_back", static_cast<uint64_t>(rolled_this_round));
    if (hooks != nullptr && hooks->on_round) {
      Status checkpointed = hooks->on_round(round, *kb);
      if (!checkpointed.ok()) return checkpointed;
    }
    if (rolled_this_round == 0) break;
  }

  report.live_pairs_after = kb->num_live_pairs();
  return report;
}

}  // namespace semdrift
