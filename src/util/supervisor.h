#ifndef SEMDRIFT_UTIL_SUPERVISOR_H_
#define SEMDRIFT_UTIL_SUPERVISOR_H_

#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "util/cancellation.h"
#include "util/fault_injection.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace semdrift {

/// Supervision policy for a run. Deadlines are *cooperative*: a stage is
/// only ever stopped at a PollCancellation() point, never preempted, so a
/// stage that finishes without polling past its deadline is accepted — the
/// guard layer adds no timing-dependent behavior to the happy path.
struct SupervisorOptions {
  /// Wall-clock budget per stage attempt. <= 0 disables deadlines.
  int stage_deadline_ms = 30000;
  /// Transient-failure retries per stage (attempts = 1 + max_retries).
  int max_retries = 2;
  /// Quarantine a concept whose retries exhaust (the run continues over the
  /// survivors). When false, an exhausted stage aborts the whole run with
  /// its error instead — fail-fast mode.
  bool quarantine = true;
  /// Deterministic bounded backoff between attempts: min(cap, base <<
  /// (attempt - 1)) milliseconds. Affects wall-clock only, never results.
  int backoff_base_ms = 1;
  int backoff_cap_ms = 50;
};

/// Per-concept verdict after a supervised run, ordered by severity —
/// merging keeps the worst outcome a concept ever reached.
enum class ConceptOutcome {
  kOk = 0,
  /// Succeeded after at least one failed attempt.
  kRetried,
  /// Completed with reduced fidelity (non-converged walk capped, instances
  /// dropped, fallback detector).
  kDegraded,
  /// Exhausted retries; excluded from all later stages and rounds.
  kQuarantined,
};

const char* ConceptOutcomeName(ConceptOutcome outcome);
bool ParseConceptOutcome(std::string_view name, ConceptOutcome* out);

/// One concept's health entry (only non-kOk concepts are stored; absence
/// means healthy).
struct ConceptHealth {
  uint32_t concept_id = 0;
  ConceptOutcome outcome = ConceptOutcome::kOk;
  int retries = 0;
  /// The stage where the (worst) outcome was reached.
  PipelineStage stage = PipelineStage::kScoreWarm;
  std::string detail;
};

/// Provenance of an instance dropped for a bad feature vector: which
/// concept, which instance, at which stage, and why.
struct DroppedInstance {
  uint32_t concept_id = 0;
  uint32_t instance = 0;
  PipelineStage stage = PipelineStage::kCollectTraining;
  std::string reason;
};

/// Aggregated per-concept outcomes of a supervised run. Persisted into
/// checkpoints (ToLines/FromLines) so --resume restores quarantine state;
/// surfaced by `semdrift run --health-report`.
///
/// Deterministic by construction: entries live in ordered maps keyed by
/// concept (and (concept_id, instance, stage) for drops), merges escalate to
/// the worst outcome, so the serialized report is identical however the
/// underlying parallel stages were scheduled.
class RunHealthReport {
 public:
  /// Merges one observation. Outcomes escalate (kOk < kRetried < kDegraded
  /// < kQuarantined); a worse outcome replaces the entry, an equal-or-better
  /// one only bumps the retry count.
  void Record(uint32_t concept_id, ConceptOutcome outcome, int retries,
              PipelineStage stage, const std::string& detail);

  /// Records a dropped instance (deduplicated) and marks its concept
  /// degraded.
  void RecordDrop(const DroppedInstance& drop);

  /// Records a detector-train degradation (a global stage, not per-concept).
  void RecordDetectorFallback(int retries, const std::string& detail);

  bool IsQuarantined(uint32_t concept_id) const;
  /// Sorted concept ids with outcome kQuarantined.
  std::vector<uint32_t> Quarantined() const;
  size_t CountWithOutcome(ConceptOutcome outcome) const;

  const std::map<uint32_t, ConceptHealth>& concepts() const { return concepts_; }
  bool detector_fallback() const { return detector_fallback_; }
  const std::string& detector_detail() const { return detector_detail_; }
  size_t num_drops() const { return drops_.size(); }

  bool empty() const {
    return concepts_.empty() && drops_.empty() && !detector_fallback_;
  }

  /// Checkpoint payload lines ("H\t..." per concept, "D\t..." per drop,
  /// "F\t..." for a detector fallback). Tabs/newlines in details are
  /// sanitized to spaces.
  std::vector<std::string> ToLines() const;
  /// Inverse of ToLines; any malformed line fails with kDataLoss carrying
  /// `context` (typically "path:line").
  Status MergeLine(const std::string& line, const std::string& context);

  /// Human-readable summary table for the CLI.
  std::string ToTable() const;

  friend bool operator==(const RunHealthReport& a, const RunHealthReport& b) {
    return a.ToLines() == b.ToLines();
  }

 private:
  std::map<uint32_t, ConceptHealth> concepts_;
  /// (concept_id, instance, stage) -> reason.
  std::map<std::tuple<uint32_t, uint32_t, int>, std::string> drops_;
  bool detector_fallback_ = false;
  int detector_retries_ = 0;
  std::string detector_detail_;
};

/// Outcome of one guarded stage execution, returned to the stage driver.
/// Drivers merge these into the health report *in deterministic (scope)
/// order* after a parallel stage completes — StageGuard itself never touches
/// shared state, which is what keeps supervised runs bit-identical at any
/// thread count.
struct StageOutcome {
  bool ok = false;
  int retries = 0;
  /// The failing attempt hit the deadline (vs threw / failed validation).
  bool cancelled = false;
  /// Last attempt's failure reason (also kept when a retry later succeeded).
  std::string error;
};

/// The supervision layer: wraps per-concept pipeline stages in guarded
/// attempt loops (deadline + retries + output validation + seeded fault
/// injection), accumulates a RunHealthReport, and answers quarantine
/// queries between stages.
///
/// Concurrency contract: RunGuarded and the fault queries are const and
/// thread-compatible (called from pool workers); MergeOutcome and health()
/// mutation are driver-side, called serially between stages.
class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions options, ComputeFaultPlan faults = {})
      : options_(options), faults_(std::move(faults)) {}

  const SupervisorOptions& options() const { return options_; }
  const ComputeFaultPlan& faults() const { return faults_; }

  RunHealthReport* health() { return &health_; }
  const RunHealthReport& health() const { return health_; }

  bool IsQuarantined(uint32_t concept_id) const {
    return health_.IsQuarantined(concept_id);
  }

  /// Filters quarantined concepts out of a scope (Id is any strong id type
  /// with a `.value`). Called between stages; within a stage the scope is
  /// fixed.
  template <typename Id>
  std::vector<Id> Surviving(const std::vector<Id>& scope) const {
    std::vector<Id> out;
    out.reserve(scope.size());
    for (Id c : scope) {
      if (!health_.IsQuarantined(c.value)) out.push_back(c);
    }
    return out;
  }

  /// The guarded attempt loop around one stage body. Each attempt runs with
  /// a deadline-armed CancellationToken installed (the thread pool forwards
  /// it to workers for nested parallel sub-work); planned throw/stall faults
  /// fire before the body; `validate` (optional) vets the produced value —
  /// a non-empty string fails the attempt. On success `*out` holds the
  /// value; on exhaustion it is untouched. Returns outcome.ok.
  ///
  /// StageGuard is a pure observer of the happy path: with no fault planned
  /// and a deadline that never fires, body(0) runs exactly as it would
  /// unguarded.
  template <typename T>
  bool RunGuarded(PipelineStage stage, uint32_t concept_id,
                  const std::function<T(int attempt)>& body,
                  const std::function<std::string(const T&)>& validate, T* out,
                  StageOutcome* outcome) const {
    int attempts = 1 + (options_.max_retries > 0 ? options_.max_retries : 0);
    for (int attempt = 0; attempt < attempts; ++attempt) {
      if (attempt > 0) {
        outcome->retries = attempt;
        BackoffSleep(attempt);
      }
      CancellationToken token;
      token.ArmDeadline(std::chrono::milliseconds(options_.stage_deadline_ms));
      ScopedCancellation scoped(&token);
      try {
        InjectPlannedFault(stage, concept_id, attempt);
        T value = body(attempt);
        if (validate) {
          std::string invalid = validate(value);
          if (!invalid.empty()) {
            outcome->error = invalid;
            continue;
          }
        }
        *out = std::move(value);
        outcome->ok = true;
        return true;
      } catch (const StageCancelledError& e) {
        outcome->cancelled = true;
        outcome->error = e.what();
      } catch (const std::exception& e) {
        outcome->cancelled = false;
        outcome->error = e.what();
      } catch (...) {
        outcome->cancelled = false;
        outcome->error = "unknown exception";
      }
    }
    return false;
  }

  /// The guarded per-concept fan-out behind every per-concept stage driver:
  /// body(id, attempt) runs inside RunGuarded for each entry of `scope`
  /// across the thread pool; the outcomes then merge serially in scope
  /// order (MergeOutcome), and accept(id, value) receives each surviving
  /// concept's value in that same order. Quarantined concepts are skipped;
  /// a fail-fast merge error stops the merge and is returned.
  template <typename T, typename Id, typename Body, typename Accept>
  Status RunGuardedEach(PipelineStage stage, const std::vector<Id>& scope,
                        const Body& body,
                        const std::function<std::string(const T&)>& validate,
                        const Accept& accept) {
    struct Slot {
      T value;
      StageOutcome outcome;
    };
    std::vector<Slot> slots = ParallelMap<Slot>(scope.size(), [&](size_t i) {
      Id id = scope[i];
      Slot slot;
      std::function<T(int)> attempt_body = [&](int attempt) { return body(id, attempt); };
      RunGuarded<T>(stage, id.value, attempt_body, validate, &slot.value, &slot.outcome);
      return slot;
    });
    for (size_t i = 0; i < scope.size(); ++i) {
      Status merged = MergeOutcome(stage, scope[i].value, slots[i].outcome);
      if (!merged.ok()) return merged;
      if (slots[i].outcome.ok) accept(scope[i], std::move(slots[i].value));
    }
    return Status::OK();
  }

  /// True when the plan says this (stage, concept_id, attempt) should emit NaN.
  /// The guard cannot synthesize a poisoned T, so drivers poison their own
  /// output when this fires (and the validation / drop paths catch it).
  bool NanFaultActive(PipelineStage stage, uint32_t concept_id, int attempt) const;

  /// Driver-side merge of a guarded outcome, called in deterministic scope
  /// order after the stage. ok+retried -> kRetried; exhausted -> quarantine
  /// (or, with quarantine disabled, an error Status the driver must
  /// propagate — fail-fast).
  Status MergeOutcome(PipelineStage stage, uint32_t concept_id,
                      const StageOutcome& outcome);

 private:
  /// Throws for planned kThrow faults; spins-until-deadline (then throws
  /// StageCancelledError) for kStall. kNanEmit is the driver's job.
  void InjectPlannedFault(PipelineStage stage, uint32_t concept_id,
                          int attempt) const;
  void BackoffSleep(int attempt) const;

  SupervisorOptions options_;
  ComputeFaultPlan faults_;
  RunHealthReport health_;
};

/// NaN/Inf screen for any indexable feature container (FeatureVector,
/// score values). Returns the index of the first non-finite entry or -1.
template <typename Container>
int FirstNonFiniteIndex(const Container& values) {
  int i = 0;
  for (double v : values) {
    if (!(v == v) || v - v != 0.0) return i;  // NaN or +/-Inf, <cmath>-free.
    ++i;
  }
  return -1;
}

}  // namespace semdrift

#endif  // SEMDRIFT_UTIL_SUPERVISOR_H_
