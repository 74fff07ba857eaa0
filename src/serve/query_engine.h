#ifndef SEMDRIFT_SERVE_QUERY_ENGINE_H_
#define SEMDRIFT_SERVE_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serve/snapshot.h"

namespace semdrift {

/// The query verbs of the serving line protocol. One request per line:
///
///   instances-of <concept> [k]      top-k live instances by drift score
///   concepts-of <instance>          concepts holding the instance live
///   is-a <instance> <concept>       membership + score/support when live
///   drift-score <instance> <concept>  Eq. 3 walk score (0 when not live)
///   mutex <concept> <concept>       Sec. 3.2.1 mutual exclusion
///   stats                           serving counters (never cached)
///   metrics                         process MetricsRegistry JSON (never cached)
///
/// Fields are TAB-separated when the line contains a tab; otherwise the line
/// is split on whitespace and multi-word names are re-joined by trying every
/// contiguous split that resolves against the snapshot's name tables (so
/// `is-a lion asian country` finds instance "lion" / concept "asian
/// country" without the caller needing tabs).
enum class QueryType : int {
  kInstancesOf = 0,
  kConceptsOf,
  kIsA,
  kDriftScore,
  kMutex,
  kStats,
  kMetrics,
  kNumTypes,
};

/// Wire name of a query type ("instances-of", ...).
std::string_view QueryTypeName(QueryType type);

/// The verb a request line names, tokenized exactly as QueryEngine::Answer
/// tokenizes it; kNumTypes for an empty line or an unknown verb.
QueryType VerbOf(std::string_view line);

/// Snapshot sections a query type reads (SnapshotSection bitmask), for
/// SnapshotReader::EnsureSections. Name resolution (NSRT + both name tables)
/// is included for every name-taking verb; stats/metrics touch no section.
uint32_t SectionsForQuery(QueryType type);

/// Point-in-time copy of one query type's serving counters.
struct QueryTypeStats {
  uint64_t count = 0;       ///< Requests answered (including errors).
  uint64_t cache_hits = 0;  ///< Answered from the result cache.
  uint64_t errors = 0;      ///< ERR or NOT_FOUND responses.
  uint64_t total_ns = 0;    ///< Summed wall latency.
  uint64_t max_ns = 0;      ///< Worst single request.

  double HitRate() const {
    return count == 0 ? 0.0 : static_cast<double>(cache_hits) / count;
  }
  double MeanNs() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / count;
  }
};

/// Per-query-type latency and hit-rate counters. Recording is lock-free
/// (relaxed atomics; max via CAS loop); Snapshot() gives a consistent-enough
/// copy for reporting.
class ServeStats {
 public:
  void Record(QueryType type, uint64_t ns, bool cache_hit, bool error);
  QueryTypeStats Snapshot(QueryType type) const;
  void Reset();

 private:
  struct Cell {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> total_ns{0};
    std::atomic<uint64_t> max_ns{0};
  };
  Cell cells_[static_cast<int>(QueryType::kNumTypes)];
};

struct QueryEngineOptions {
  /// Result-cache shards (power of two; keys hash to a shard so concurrent
  /// queries rarely contend on one mutex).
  size_t cache_shards = 16;
  /// Total cached responses across all shards; 0 disables the cache.
  size_t cache_capacity = 4096;
  /// When set, the engine records into these stats instead of its own.
  /// The hot-swap manager points every generation's engine at one shared
  /// ServeStats, so counters survive swaps while each generation gets a
  /// fresh (invalidated) response cache. Must outlive the engine.
  ServeStats* shared_stats = nullptr;
  /// Snapshot generation this engine serves; reported by the `stats` verb.
  uint64_t generation = 0;
};

/// Answers line-protocol queries over a loaded snapshot. Thread-safe: the
/// snapshot is immutable, the result cache is sharded-locked, and stats are
/// atomic. Answers are deterministic — a cached response is byte-identical
/// to a freshly computed one, so concurrent batched execution matches
/// serial execution bit for bit.
///
/// Response grammar (one line, TAB-separated fields):
///   OK <payload...>          | NOT_FOUND <name> | ERR <message>
/// Scores print with %.17g so round-tripping through text is exact.
class QueryEngine {
 public:
  /// `snapshot` must outlive the engine.
  explicit QueryEngine(const SnapshotReader* snapshot, QueryEngineOptions options = {});

  /// Parses and answers one request line (without trailing newline).
  std::string Answer(std::string_view line);

  /// Same, but with `record_stats == false` neither ServeStats nor the
  /// per-verb registry metrics are touched, so reference answers computed
  /// outside the serving path leave the serving counters alone.
  std::string Answer(std::string_view line, bool record_stats);

  const SnapshotReader& snapshot() const { return *snapshot_; }
  const ServeStats& stats() const { return *stats_ptr_; }
  void ResetStats() { stats_ptr_->Reset(); }

  /// Generation reported by the `stats` verb (0 for single-snapshot serving).
  uint64_t generation() const { return options_.generation; }

  /// Changes the result cache's total capacity in place, evicting LRU
  /// entries that no longer fit. ServeStats are deliberately left untouched:
  /// a cache resize is an operational tuning knob, not a stats epoch.
  /// Capacity 0 disables (and empties) the cache. Thread-safe against
  /// concurrent Answer() calls.
  void ResizeCache(size_t capacity);

  /// Formats the `stats` response from the current counters.
  std::string FormatStats() const;

 private:
  struct Shard {
    std::mutex mu;
    /// MRU-first list of (key, response); the map points into it.
    std::list<std::pair<std::string, std::string>> lru;
    std::unordered_map<std::string_view,
                       std::list<std::pair<std::string, std::string>>::iterator>
        index;
  };

  std::string Execute(QueryType type, const std::vector<std::string_view>& args);
  std::string InstancesOf(const std::vector<std::string_view>& args);
  std::string ConceptsOf(const std::vector<std::string_view>& args);
  std::string IsA(const std::vector<std::string_view>& args);
  std::string DriftScore(const std::vector<std::string_view>& args);
  std::string Mutex(const std::vector<std::string_view>& args);

  /// Resolves a two-name argument list by trying every contiguous split
  /// (see QueryType docs). Returns false when no split resolves; `first_out`
  /// then holds the unresolvable text for the NOT_FOUND response.
  bool SplitTwoNames(const std::vector<std::string_view>& args, bool first_is_instance,
                     bool second_is_instance, uint32_t* first_out,
                     uint32_t* second_out, std::string* miss) const;

  bool CacheGet(const std::string& key, std::string* response);
  void CachePut(const std::string& key, const std::string& response);

  const SnapshotReader* snapshot_;
  QueryEngineOptions options_;
  /// 0 disables the cache; atomic so ResizeCache can retune a live engine.
  std::atomic<size_t> per_shard_capacity_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  ServeStats stats_;
  /// &stats_, or options_.shared_stats when stats outlive this engine.
  ServeStats* stats_ptr_ = &stats_;
};

/// A borrowed engine plus whatever owns it. The Batcher resolves one pin per
/// batch: `keepalive` holds the serving generation alive (RCU-style) while
/// the batch runs, so a concurrent hot swap can retire the old generation
/// without yanking it out from under in-flight queries.
struct EnginePin {
  QueryEngine* engine = nullptr;
  std::shared_ptr<const void> keepalive;
};

/// Answer to every request that finds no engine to run on (hot-swap serving
/// before the first generation loads).
inline constexpr std::string_view kNoGenerationResponse =
    "ERR\tno snapshot generation available";

/// Resolves the engine to use for the next batch. Must be callable from any
/// thread; returning a null engine makes the batch answer
/// kNoGenerationResponse.
using EngineSource = std::function<EnginePin()>;

}  // namespace semdrift

#endif  // SEMDRIFT_SERVE_QUERY_ENGINE_H_
