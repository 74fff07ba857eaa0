#ifndef SEMDRIFT_DP_CLEANER_H_
#define SEMDRIFT_DP_CLEANER_H_

#include <functional>
#include <vector>

#include "dp/detector.h"
#include "dp/seed_labeling.h"
#include "text/sentence.h"

namespace semdrift {

/// Configuration of the DP-based cleaning pipeline (Sec. 4).
struct CleanerOptions {
  /// Which detector the pipeline trains and applies each round.
  DetectorKind detector = DetectorKind::kSemiSupervisedMultiTask;
  DetectorTrainOptions train;
  SeedLabelerConfig seeds;
  MutexParams mutex;
  /// Scoring model behind Eq. 21 and features f3/f4.
  RankModel score_model = RankModel::kRandomWalk;
  /// Cascade behaviour when pairs die (Sec. 4.2).
  CascadePolicy cascade = CascadePolicy::kAllTriggersDead;
  /// Cleaning repeats round after round until no DP fires (Sec. 4.2's
  /// "one iteration after one") or this cap.
  int max_rounds = 6;
  /// Gate the Accidental-DP rollbacks with Eq. 21 as well: an extraction
  /// produced by or triggered by a flagged Accidental DP is only rolled
  /// back when the re-scored attachment disagrees (ambiguous sentences) or
  /// when the pair rests on a single unambiguous sentence (Property 3's
  /// "accidental" signature). Protects against detector false positives;
  /// turning it off gives the paper's unconditional treatment (ablated in
  /// bench_micro).
  bool eq21_gate_accidental = true;
  /// Laplace smoothing of the per-instance attachment votes (see
  /// SmoothedAttachmentVote).
  double eq21_smoothing = 0.5;
  /// A DP-implicated extraction is also rolled back when the average
  /// smoothed vote for its extracted concept falls below this floor — the
  /// "supported by weak evidence" signature of Property 4. Set to 0 to
  /// disable and use the pure argmax check.
  double eq21_min_average_vote = 0.42;
  /// Retrain the detector on the cleaned KB each round; turning this off
  /// reuses the round-1 detector (ablated in bench_micro).
  bool retrain_each_round = true;
};

/// One Eq. 21 adjudication of an extraction triggered by an Intentional DP.
struct SentenceCheckDecision {
  uint32_t record_id = 0;
  ConceptId extracted_concept;
  ConceptId best_concept;
  bool rolled_back = false;
};

/// What a cleaning run did.
struct CleaningReport {
  int rounds = 0;
  /// Pairs flagged per category, accumulated over rounds (deduplicated).
  std::vector<IsAPair> accidental_dps;
  std::vector<IsAPair> intentional_dps;
  /// Every Eq. 21 adjudication performed (for the Table 5 pstc/rstc eval).
  std::vector<SentenceCheckDecision> sentence_checks;
  /// Total extraction records rolled back (including cascades).
  size_t records_rolled_back = 0;
  /// Live pairs before and after.
  size_t live_pairs_before = 0;
  size_t live_pairs_after = 0;
};

/// Wiring for CleanSupervised (util/supervisor.h): the supervisor whose
/// policy guards the stages, the first round, and a per-round checkpoint
/// callback.
struct SupervisedCleanHooks {
  /// Required. Owns the policy, the fault plan and the health report.
  Supervisor* supervisor = nullptr;
  /// First round to execute. Resume support: rounds below this already ran
  /// against the restored KB before its checkpoint was written, and each
  /// round is a deterministic function of KB state, so restarting at
  /// first_round reproduces the uninterrupted run's remaining rounds.
  int first_round = 1;
  /// Called after every completed round with the cleaned KB (checkpoint
  /// writing). A non-OK status aborts cleaning with that status.
  std::function<Status(int round, const KnowledgeBase& kb)> on_round;
};

/// The DP-based cleaner (Sec. 4): per round it rebuilds the mutex index and
/// the score cache from live KB state, re-labels seeds, trains the
/// configured detector, classifies every live instance of the scoped
/// concepts, then
///   * for Accidental DPs: removes the pair itself and rolls back every
///     extraction it triggered;
///   * for Intentional DPs: re-scores each triggered sentence with Eq. 21
///     and rolls back extractions whose concept is not the argmax;
/// with pair deaths cascading per CleanerOptions::cascade. Rounds repeat
/// until a round changes nothing.
class DpCleaner {
 public:
  /// `sentences` provides the Eq. 21 candidate sets; `verified` feeds the
  /// seed labeler; `num_concepts` bounds concept-id space for the index.
  DpCleaner(const SentenceStore* sentences, VerifiedSource verified,
            size_t num_concepts, CleanerOptions options = {});

  /// Cleans `kb` in place over the given concept scope. Runs the same
  /// guarded round loop as CleanSupervised under a pass-through policy: no
  /// deadline, no retries, no quarantine and no fault plan. A stage that
  /// throws ends the clean with a std::runtime_error carrying the stage
  /// error; data-caused degradations (a detector that trains nothing from
  /// labeled rows falls back down the ad-hoc ladder, a non-finite feature
  /// row is dropped) are logged as a health table at warning level.
  CleaningReport Clean(KnowledgeBase* kb, const std::vector<ConceptId>& scope) const;

  /// Scoped re-cleaning entry point for incremental (streaming) epochs:
  /// cleans `dirty` ∩ `within` (the effective scope is sorted and
  /// deduplicated; an empty `within` means no restriction). Per-round
  /// feature state (mutex index, score cache, seeds) is rebuilt from the
  /// whole live KB either way and classification is per concept, so a
  /// round's detections on the scoped concepts match what a full-scope round
  /// would flag on them; what scoping gives up is DPs *outside* the dirty
  /// closure and their cascades — the divergence the streaming pipeline's
  /// periodic full rebuilds bound. Returns Clean()'s report (empty scope:
  /// a zero-round no-op report).
  CleaningReport CleanDirty(KnowledgeBase* kb, const std::vector<ConceptId>& dirty,
                            const std::vector<ConceptId>& within) const;

  /// Cleans under the caller's supervision policy: score warm-up,
  /// training-data collection, detector training and per-concept
  /// classification each run inside a StageGuard (as in Clean()); the
  /// policy adds deadlines, retries, quarantine (quarantined concepts drop
  /// out of the live scope between stages) and fault injection, and
  /// hooks.on_round fires after each completed round. With no fault
  /// injected and no stage failing, the KB and report are bit-identical to
  /// Clean() at any thread count.
  Result<CleaningReport> CleanSupervised(KnowledgeBase* kb,
                                         const std::vector<ConceptId>& scope,
                                         const SupervisedCleanHooks& hooks) const;

  const CleanerOptions& options() const { return options_; }

 private:
  const SentenceStore* sentences_;
  VerifiedSource verified_;
  size_t num_concepts_;
  CleanerOptions options_;
};

}  // namespace semdrift

#endif  // SEMDRIFT_DP_CLEANER_H_
