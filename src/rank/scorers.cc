#include "rank/scorers.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancellation.h"
#include "util/supervisor.h"
#include "util/thread_pool.h"

namespace semdrift {

namespace {

/// Normalizes `v` to sum to 1 in place (no-op on an all-zero vector).
void NormalizeL1(std::vector<double>* v) {
  double total = std::accumulate(v->begin(), v->end(), 0.0);
  if (total <= 0.0) return;
  for (double& x : *v) x /= total;
}

std::vector<double> FrequencyScores(const ConceptGraph& graph) {
  std::vector<double> scores = graph.node_counts();
  NormalizeL1(&scores);
  return scores;
}

/// Power iteration for a teleporting walk over CSR adjacency. `restart`
/// must be L1-normalized; rows are stochasticized on the fly via the
/// precomputed `out_degrees`; dangling mass teleports.
std::vector<double> TeleportingWalk(const std::vector<size_t>& offsets,
                                    const std::vector<uint32_t>& targets,
                                    const std::vector<double>& weights,
                                    const std::vector<double>& out_degrees,
                                    const std::vector<double>& restart,
                                    const WalkParams& params,
                                    WalkOutcome* outcome) {
  size_t n = out_degrees.size();
  std::vector<double> p = restart;
  std::vector<double> next(n, 0.0);
  bool converged = (n == 0);  // Nothing to converge on an empty graph.
  int iterations = 0;
  for (int iter = 0; iter < params.max_iterations; ++iter) {
    // Cooperative cancellation: one poll per power iteration is the
    // granularity at which a supervised deadline can stop a runaway walk.
    PollCancellation("teleporting walk");
    std::fill(next.begin(), next.end(), 0.0);
    double dangling = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (p[i] == 0.0) continue;
      if (out_degrees[i] <= 0.0) {
        dangling += p[i];
        continue;
      }
      double share = p[i] / out_degrees[i];
      for (size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
        next[targets[e]] += share * weights[e];
      }
    }
    double l1 = 0.0;
    for (size_t i = 0; i < n; ++i) {
      double value = (1.0 - params.teleport) * (next[i] + dangling * restart[i]) +
                     params.teleport * restart[i];
      l1 += std::abs(value - p[i]);
      next[i] = value;
    }
    p.swap(next);
    iterations = iter + 1;
    if (l1 < params.tolerance) {
      converged = true;
      break;
    }
  }
  if (outcome != nullptr) {
    outcome->converged = converged;
    outcome->iterations = iterations;
  }
  return p;
}

std::vector<double> RandomWalkScores(const ConceptGraph& graph,
                                     const WalkParams& params,
                                     WalkOutcome* outcome) {
  std::vector<double> restart = graph.root_weights();
  double total = std::accumulate(restart.begin(), restart.end(), 0.0);
  if (total <= 0.0) {
    // Degenerate concept with no iteration-1 roots: restart uniformly.
    restart.assign(graph.num_nodes(), graph.num_nodes() ? 1.0 / graph.num_nodes() : 0.0);
  } else {
    for (double& w : restart) w /= total;
  }
  // The walk consumes the graph's own CSR arrays — no per-call copy.
  return TeleportingWalk(graph.edge_offsets(), graph.edge_targets(),
                         graph.edge_weights(), graph.out_degrees(), restart, params,
                         outcome);
}

std::vector<double> PageRankScores(const ConceptGraph& graph,
                                   const WalkParams& params,
                                   WalkOutcome* outcome) {
  size_t n = graph.num_nodes();
  // Undirected: symmetrize the edge set (the paper's PageRank baseline uses
  // the same graph with undirected edges and uniform teleportation). Rows
  // keep the historical append order — reverse edges from lower-indexed
  // sources, own edges, reverse edges from higher-indexed sources — so the
  // walk's accumulation order (and hence its floating-point result) is
  // unchanged.
  std::vector<std::vector<std::pair<uint32_t, double>>> rows(n);
  for (size_t i = 0; i < n; ++i) {
    ConceptGraph::OutEdgeSpan edges = graph.OutEdges(i);
    for (size_t e = 0; e < edges.size(); ++e) {
      rows[i].emplace_back(edges.targets[e], edges.weights[e]);
      rows[edges.targets[e]].emplace_back(static_cast<uint32_t>(i), edges.weights[e]);
    }
  }
  std::vector<size_t> offsets(n + 1, 0);
  std::vector<uint32_t> targets;
  std::vector<double> weights;
  std::vector<double> out_degrees(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    offsets[i + 1] = offsets[i] + rows[i].size();
    for (const auto& [to, w] : rows[i]) {
      targets.push_back(to);
      weights.push_back(w);
      out_degrees[i] += w;
    }
  }
  std::vector<double> restart(n, n ? 1.0 / n : 0.0);
  return TeleportingWalk(offsets, targets, weights, out_degrees, restart, params,
                         outcome);
}

}  // namespace

std::vector<double> ScoreGraph(const ConceptGraph& graph, RankModel model,
                               const WalkParams& params, WalkOutcome* outcome) {
  switch (model) {
    case RankModel::kFrequency:
      return FrequencyScores(graph);
    case RankModel::kPageRank:
      return PageRankScores(graph, params, outcome);
    case RankModel::kRandomWalk:
      return RandomWalkScores(graph, params, outcome);
  }
  return {};
}

std::unordered_map<InstanceId, double> ScoreConcept(const KnowledgeBase& kb,
                                                    ConceptId c, RankModel model,
                                                    const WalkParams& params) {
  // Converged scores pass the check untouched; a non-converged vector is
  // L1-normalised already, so the [0, 1] cap only zeroes non-finite entries.
  return ScoreConceptChecked(kb, c, model, params).scores;
}

ConceptScores ScoreConceptChecked(const KnowledgeBase& kb, ConceptId c,
                                  RankModel model, const WalkParams& params) {
  ConceptGraph graph = ConceptGraph::Build(kb, c);
  WalkOutcome walk;
  std::vector<double> scores = ScoreGraph(graph, model, params, &walk);
  ConceptScores out;
  out.converged = walk.converged;
  out.iterations = walk.iterations;
  if (!walk.converged) {
    // Only a non-converged vector gets sanitized: it can carry overshoot or
    // non-finite junk. A converged result is returned untouched.
    for (double& s : scores) {
      if (!(s == s) || s - s != 0.0) {
        s = 0.0;  // NaN / +-Inf.
      } else if (s < 0.0) {
        s = 0.0;
      } else if (s > 1.0) {
        s = 1.0;
      }
    }
  }
  out.scores.reserve(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    out.scores.emplace(graph.node(i), scores[i]);
  }
  return out;
}

double ScoreCache::Get(ConceptId c, InstanceId e) const {
  const auto& scores = Concept(c);
  auto it = scores.find(e);
  return it == scores.end() ? 0.0 : it->second;
}

const std::unordered_map<InstanceId, double>& ScoreCache::Concept(ConceptId c) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(c.value);
    if (it != cache_.end()) return *it->second;
  }
  // Compute outside the lock so concurrent misses on *different* concepts
  // don't serialize on one walk. A racing duplicate computation of the same
  // concept yields the identical map (scoring is deterministic); the first
  // insert wins and the loser is discarded.
  auto computed = std::make_unique<std::unordered_map<InstanceId, double>>(
      ScoreConcept(*kb_, c, model_, params_));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = cache_.emplace(c.value, std::move(computed));
  (void)inserted;
  return *it->second;
}

namespace {

/// The per-concept warm body shared by ScoreCache's plain and guarded warm
/// drivers: one checked walk, timed into the order-free warm metrics.
ConceptScores WarmConcept(const KnowledgeBase& kb, ConceptId c, RankModel model,
                          const WalkParams& params) {
  static MetricsRegistry::Counter warm_concepts =
      GlobalMetrics().RegisterCounter("warm.concepts");
  static MetricsRegistry::Histogram warm_concept_ns =
      GlobalMetrics().RegisterHistogram("warm.concept_ns", LatencyBucketsNs());
  auto start = std::chrono::steady_clock::now();
  ConceptScores scores = ScoreConceptChecked(kb, c, model, params);
  warm_concepts.Add();
  warm_concept_ns.Observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return scores;
}

}  // namespace

void ScoreCache::Insert(ConceptId c, std::unordered_map<InstanceId, double> scores) {
  std::lock_guard<std::mutex> lock(mu_);
  // emplace is first-insert-wins: an already-cached concept keeps its map.
  cache_.emplace(c.value, std::make_unique<std::unordered_map<InstanceId, double>>(
                              std::move(scores)));
}

void ScoreCache::Warm(const std::vector<ConceptId>& concepts) {
  // Skip concepts already cached, then build the rest concurrently — each
  // concept's graph build + walk is independent. Results are inserted in
  // input order (ordered reduction), so the cache's contents are identical
  // for every thread count.
  std::vector<ConceptId> missing;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (ConceptId c : concepts) {
      if (cache_.find(c.value) == cache_.end()) missing.push_back(c);
    }
  }
  if (missing.empty()) return;
  ScopedSpan span(&GlobalTrace(), "warm.batch");
  span.AddTag("concepts", static_cast<uint64_t>(missing.size()));
  std::vector<ConceptScores> computed =
      ParallelMap<ConceptScores>(missing.size(), [&](size_t i) {
        return WarmConcept(*kb_, missing[i], model_, params_);
      });
  for (size_t i = 0; i < missing.size(); ++i) {
    Insert(missing[i], std::move(computed[i].scores));
  }
}

Status ScoreCache::WarmGuarded(const std::vector<ConceptId>& concepts,
                               Supervisor* supervisor) {
  ScopedSpan span(&GlobalTrace(), "warm.batch");
  span.AddTag("concepts", static_cast<uint64_t>(concepts.size()));
  auto body = [&](ConceptId c, int attempt) {
    ConceptScores computed = WarmConcept(*kb_, c, model_, params_);
    if (supervisor->NanFaultActive(PipelineStage::kScoreWarm, c.value, attempt) &&
        !computed.scores.empty()) {
      computed.scores.begin()->second = std::numeric_limits<double>::quiet_NaN();
    }
    return computed;
  };
  std::function<std::string(const ConceptScores&)> validate =
      [](const ConceptScores& computed) {
        for (const auto& entry : computed.scores) {
          if (!std::isfinite(entry.second)) {
            return std::string("non-finite score in converged walk");
          }
        }
        return std::string();
      };
  return supervisor->RunGuardedEach<ConceptScores>(
      PipelineStage::kScoreWarm, concepts, body, validate,
      [&](ConceptId c, ConceptScores&& computed) {
        if (!computed.converged) {
          supervisor->health()->Record(
              c.value, ConceptOutcome::kDegraded, 0, PipelineStage::kScoreWarm,
              "walk did not converge after " + std::to_string(computed.iterations) +
                  " iterations; scores capped to [0, 1]");
        }
        Insert(c, std::move(computed.scores));
      });
}

}  // namespace semdrift
