#ifndef SEMDRIFT_RANK_SCORERS_H_
#define SEMDRIFT_RANK_SCORERS_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "kb/knowledge_base.h"
#include "rank/concept_graph.h"
#include "text/ids.h"
#include "util/status.h"

namespace semdrift {

class Supervisor;

/// The three instance-scoring models compared in Table 2. The paper's
/// score(.) (Eq. 3) is kRandomWalk; the others are baselines.
enum class RankModel {
  /// Score proportional to live pair support.
  kFrequency,
  /// PageRank on the undirected version of the trigger graph, teleport 0.15.
  kPageRank,
  /// Random walk with restart from the iteration-1 instances (restart
  /// probability 0.15), on the directed trigger graph — Eq. 3 / [23].
  kRandomWalk,
};

/// Numerical parameters shared by the walk-based models.
struct WalkParams {
  /// Teleporting probability (the paper uses 0.15).
  double teleport = 0.15;
  /// Convergence threshold on the L1 change of the score vector.
  double tolerance = 1e-10;
  int max_iterations = 200;
};

/// Convergence telemetry from a power-iteration walk. The frequency model
/// trivially "converges" (no iteration happens).
struct WalkOutcome {
  bool converged = true;
  int iterations = 0;
};

/// Scores every live instance of a concept under one model. Scores are
/// normalized to sum to 1 over the concept (they are visit probabilities
/// for the walk models; frequency is normalized for comparability). This
/// is ScoreConceptChecked(...).scores.
std::unordered_map<InstanceId, double> ScoreConcept(const KnowledgeBase& kb,
                                                    ConceptId c, RankModel model,
                                                    const WalkParams& params = {});

/// Same, but over an already-built graph (used by benches that reuse one
/// graph across models). `outcome`, when given, reports convergence.
std::vector<double> ScoreGraph(const ConceptGraph& graph, RankModel model,
                               const WalkParams& params = {},
                               WalkOutcome* outcome = nullptr);

/// ScoreConcept plus convergence telemetry and graceful degradation for the
/// supervised pipeline.
struct ConceptScores {
  std::unordered_map<InstanceId, double> scores;
  bool converged = true;
  int iterations = 0;
};

/// Like ScoreConcept, but reports convergence and sanitizes a *non-converged*
/// result: non-finite entries are zeroed and the rest clamped into [0, 1], so
/// a degraded concept still yields usable (capped) scores instead of
/// poisoning downstream features. A converged result is passed through
/// untouched.
ConceptScores ScoreConceptChecked(const KnowledgeBase& kb, ConceptId c,
                                  RankModel model, const WalkParams& params = {});

/// Lazy per-concept score cache. The DP features (f3, f4) and the
/// Intentional-DP sentence check (Eq. 21) query scores for many (concept,
/// instance) pairs; each concept's walk runs once on first touch. The cache
/// reads the KB at query time — invalidate (create a fresh cache) after any
/// rollback.
///
/// Thread-safe: Get/Concept may be called concurrently (the per-concept
/// score maps are immutable once inserted, and Concept returns a reference
/// that stays valid for the cache's lifetime). Warm() bulk-builds many
/// concepts across the global thread pool; warming the working set up front
/// turns all later queries into lock-then-lookup hits, which is how the
/// cleaning pipeline uses it before fanning feature extraction out.
class ScoreCache {
 public:
  ScoreCache(const KnowledgeBase* kb, RankModel model, WalkParams params = {})
      : kb_(kb), model_(model), params_(params) {}

  ScoreCache(const ScoreCache&) = delete;
  ScoreCache& operator=(const ScoreCache&) = delete;

  /// Score of (c, e); 0 when the pair is unknown or dead.
  double Get(ConceptId c, InstanceId e) const;

  /// Whole-concept view (computing it on first use). The returned reference
  /// is stable until the cache is destroyed.
  const std::unordered_map<InstanceId, double>& Concept(ConceptId c) const;

  /// Pre-computes every listed concept, fanning graph builds + walks out
  /// over the global thread pool. Already-cached concepts are skipped. The
  /// resulting cache state is bit-identical for every thread count.
  void Warm(const std::vector<ConceptId>& concepts);

  /// Warm() under supervision: each concept's checked walk runs in a
  /// StageGuard (util/supervisor.h) and outcomes merge in input order. A
  /// walk that throws, stalls past its deadline or emits NaN is quarantined
  /// and stays out of the cache; a non-converged walk is inserted capped to
  /// [0, 1] and its concept recorded degraded; an already-cached concept
  /// keeps its map. Fault-free, a fresh cache ends up as Warm() leaves it.
  /// Returns the supervisor's fail-fast error, if any.
  Status WarmGuarded(const std::vector<ConceptId>& concepts, Supervisor* supervisor);

 private:
  const KnowledgeBase* kb_;
  RankModel model_;
  WalkParams params_;
  mutable std::mutex mu_;
  /// unique_ptr indirection keeps concept maps address-stable across
  /// rehashes, so references handed out by Concept() never dangle.
  mutable std::unordered_map<uint32_t,
                             std::unique_ptr<std::unordered_map<InstanceId, double>>>
      cache_;

  /// First insert wins: an already-cached concept keeps its map.
  void Insert(ConceptId c, std::unordered_map<InstanceId, double> scores);
};

}  // namespace semdrift

#endif  // SEMDRIFT_RANK_SCORERS_H_
