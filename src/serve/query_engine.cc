#include "serve/query_engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "obs/metrics.h"

namespace semdrift {

namespace {

constexpr int kNumTypes = static_cast<int>(QueryType::kNumTypes);

constexpr std::string_view kTypeNames[kNumTypes] = {
    "instances-of", "concepts-of", "is-a", "drift-score", "mutex", "stats",
    "metrics",
};

/// Pre-registered per-verb registry handles ("serve.<verb>.requests",
/// "serve.<verb>.ns"), so each Answer() pays two atomic ops, no lookups.
struct VerbMetrics {
  MetricsRegistry::Counter requests;
  MetricsRegistry::Histogram latency_ns;
};

VerbMetrics& GetVerbMetrics(int type_index) {
  static std::vector<VerbMetrics>* metrics = [] {
    auto* out = new std::vector<VerbMetrics>();
    out->reserve(kNumTypes);
    for (int i = 0; i < kNumTypes; ++i) {
      std::string prefix = "serve." + std::string(kTypeNames[i]);
      out->push_back(VerbMetrics{
          GlobalMetrics().RegisterCounter(prefix + ".requests"),
          GlobalMetrics().RegisterHistogram(prefix + ".ns", LatencyBucketsNs())});
    }
    return out;
  }();
  return (*metrics)[type_index];
}

/// %.17g: shortest text that round-trips an IEEE double exactly, so scripted
/// expected-answer diffs never hit formatting noise.
std::string FormatScore(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The query type named by one verb token; kNumTypes when unknown.
QueryType TypeOfVerb(std::string_view verb) {
  for (int i = 0; i < kNumTypes; ++i) {
    if (verb == kTypeNames[i]) return static_cast<QueryType>(i);
  }
  return QueryType::kNumTypes;
}

std::vector<std::string_view> Tokenize(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  std::vector<std::string_view> tokens;
  if (line.find('\t') != std::string_view::npos) {
    size_t start = 0;
    while (start <= line.size()) {
      size_t tab = line.find('\t', start);
      if (tab == std::string_view::npos) tab = line.size();
      tokens.push_back(line.substr(start, tab - start));
      start = tab + 1;
    }
    // A trailing empty field from "verb\t" is noise, interior ones are kept
    // (they will fail name resolution loudly rather than silently shift).
    while (!tokens.empty() && tokens.back().empty()) tokens.pop_back();
    return tokens;
  }
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\f' || line[i] == '\v')) {
      ++i;
    }
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\f' && line[i] != '\v') {
      ++i;
    }
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

std::string JoinRange(const std::vector<std::string_view>& args, size_t begin,
                      size_t end) {
  std::string out;
  for (size_t i = begin; i < end; ++i) {
    if (i > begin) out += ' ';
    out.append(args[i].data(), args[i].size());
  }
  return out;
}

bool ParseCount(std::string_view token, uint64_t* out) {
  if (token.empty() || token.size() > 9) return false;
  uint64_t v = 0;
  for (char c : token) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

}  // namespace

std::string_view QueryTypeName(QueryType type) {
  return kTypeNames[static_cast<int>(type)];
}

QueryType VerbOf(std::string_view line) {
  const std::vector<std::string_view> tokens = Tokenize(line);
  return tokens.empty() ? QueryType::kNumTypes : TypeOfVerb(tokens[0]);
}

uint32_t SectionsForQuery(QueryType type) {
  // Names mask: FindConcept/FindInstance walk NSRT and compare against both
  // name tables; responses print names from either table too.
  constexpr uint32_t kNames =
      kSnapSecConceptNames | kSnapSecInstanceNames | kSnapSecNameSort;
  switch (type) {
    case QueryType::kInstancesOf:
      return kNames | kSnapSecForwardCsr | kSnapSecRank | kSnapSecScores |
             kSnapSecConceptMeta;
    case QueryType::kConceptsOf:
      return kNames | kSnapSecInverseCsr | kSnapSecScores;
    case QueryType::kIsA:
      return kNames | kSnapSecForwardCsr | kSnapSecScores | kSnapSecSupport |
             kSnapSecConceptMeta;
    case QueryType::kDriftScore:
      return kNames | kSnapSecForwardCsr | kSnapSecScores;
    case QueryType::kMutex:
      return kNames | kSnapSecConceptMeta | kSnapSecMutex;
    default:
      return 0;  // stats/metrics read counters, not the snapshot.
  }
}

// -- ServeStats --------------------------------------------------------------

void ServeStats::Record(QueryType type, uint64_t ns, bool cache_hit, bool error) {
  Cell& c = cells_[static_cast<int>(type)];
  c.count.fetch_add(1, std::memory_order_relaxed);
  if (cache_hit) c.cache_hits.fetch_add(1, std::memory_order_relaxed);
  if (error) c.errors.fetch_add(1, std::memory_order_relaxed);
  c.total_ns.fetch_add(ns, std::memory_order_relaxed);
  uint64_t seen = c.max_ns.load(std::memory_order_relaxed);
  while (ns > seen &&
         !c.max_ns.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
}

QueryTypeStats ServeStats::Snapshot(QueryType type) const {
  const Cell& c = cells_[static_cast<int>(type)];
  QueryTypeStats out;
  out.count = c.count.load(std::memory_order_relaxed);
  out.cache_hits = c.cache_hits.load(std::memory_order_relaxed);
  out.errors = c.errors.load(std::memory_order_relaxed);
  out.total_ns = c.total_ns.load(std::memory_order_relaxed);
  out.max_ns = c.max_ns.load(std::memory_order_relaxed);
  return out;
}

void ServeStats::Reset() {
  for (Cell& c : cells_) {
    c.count.store(0, std::memory_order_relaxed);
    c.cache_hits.store(0, std::memory_order_relaxed);
    c.errors.store(0, std::memory_order_relaxed);
    c.total_ns.store(0, std::memory_order_relaxed);
    c.max_ns.store(0, std::memory_order_relaxed);
  }
}

// -- QueryEngine -------------------------------------------------------------

QueryEngine::QueryEngine(const SnapshotReader* snapshot, QueryEngineOptions options)
    : snapshot_(snapshot), options_(options) {
  if (options_.shared_stats != nullptr) stats_ptr_ = options_.shared_stats;
  if (options_.cache_shards == 0) options_.cache_shards = 1;
  // Shards always exist so ResizeCache can enable a cache that started
  // disabled; per_shard_capacity_ == 0 short-circuits every cache op.
  shards_.reserve(options_.cache_shards);
  for (size_t i = 0; i < options_.cache_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (options_.cache_capacity > 0) {
    per_shard_capacity_.store(
        std::max<size_t>(1, options_.cache_capacity / options_.cache_shards),
        std::memory_order_relaxed);
  }
}

void QueryEngine::ResizeCache(size_t capacity) {
  options_.cache_capacity = capacity;
  size_t per_shard =
      capacity == 0 ? 0 : std::max<size_t>(1, capacity / options_.cache_shards);
  per_shard_capacity_.store(per_shard, std::memory_order_relaxed);
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    while (shard.lru.size() > per_shard) {
      shard.index.erase(std::string_view(shard.lru.back().first));
      shard.lru.pop_back();
    }
  }
}

std::string QueryEngine::Answer(std::string_view line) {
  return Answer(line, /*record_stats=*/true);
}

std::string QueryEngine::Answer(std::string_view line, bool record_stats) {
  const auto started = std::chrono::steady_clock::now();
  std::vector<std::string_view> tokens = Tokenize(line);
  if (tokens.empty()) return "ERR\tempty request";

  const QueryType type = TypeOfVerb(tokens[0]);
  if (type == QueryType::kNumTypes) {
    return "ERR\tunknown verb '" + std::string(tokens[0]) +
           "' (instances-of|concepts-of|is-a|drift-score|mutex|stats|metrics)";
  }
  const int type_index = static_cast<int>(type);
  std::vector<std::string_view> args(tokens.begin() + 1, tokens.end());

  std::string response;
  bool cache_hit = false;
  if (type == QueryType::kStats) {
    response = FormatStats();
  } else if (type == QueryType::kMetrics) {
    // Live process-wide registry dump; caching it would freeze the counters.
    response = "OK\t" + GlobalMetrics().ToJson();
  } else if (Status ready = snapshot_->EnsureSections(SectionsForQuery(type));
             !ready.ok()) {
    // Deferred mmap verification found damage (or the file was resized under
    // the mapping). Never cached: the failure is sticky in the reader, and a
    // cached ERR would outlive a hot swap to a healthy generation.
    response = "ERR\tsnapshot: " + ready.message();
  } else {
    std::string key = std::string(kTypeNames[type_index]);
    for (std::string_view a : args) {
      key += '\t';
      key.append(a.data(), a.size());
    }
    if (CacheGet(key, &response)) {
      cache_hit = true;
    } else {
      response = Execute(type, args);
      CachePut(key, response);
    }
  }
  if (record_stats) {
    const auto ended = std::chrono::steady_clock::now();
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(ended - started)
            .count());
    const bool error = response.compare(0, 2, "OK") != 0;
    stats_ptr_->Record(type, ns, cache_hit, error);
    VerbMetrics& verb = GetVerbMetrics(type_index);
    verb.requests.Add();
    verb.latency_ns.Observe(static_cast<double>(ns));
  }
  return response;
}

std::string QueryEngine::Execute(QueryType type,
                                 const std::vector<std::string_view>& args) {
  switch (type) {
    case QueryType::kInstancesOf:
      return InstancesOf(args);
    case QueryType::kConceptsOf:
      return ConceptsOf(args);
    case QueryType::kIsA:
      return IsA(args);
    case QueryType::kDriftScore:
      return DriftScore(args);
    case QueryType::kMutex:
      return Mutex(args);
    default:
      return "ERR\tinternal: unroutable query type";
  }
}

std::string QueryEngine::InstancesOf(const std::vector<std::string_view>& args) {
  if (args.empty()) return "ERR\tusage: instances-of <concept> [k]";
  size_t name_end = args.size();
  uint64_t k = ~0ull;
  if (args.size() >= 2 && ParseCount(args.back(), &k)) {
    name_end = args.size() - 1;
  } else {
    k = ~0ull;
  }
  std::string name = JoinRange(args, 0, name_end);
  uint32_t c = snapshot_->FindConcept(name);
  if (c == SnapshotReader::kNoId) return "NOT_FOUND\t" + name;

  const uint64_t begin = snapshot_->ConceptBegin(c);
  const uint64_t end = snapshot_->ConceptEnd(c);
  const uint64_t total = end - begin;
  const uint64_t take = std::min<uint64_t>(k, total);
  std::string out = "OK\tn=" + std::to_string(total) +
                    "\tquarantined=" + (snapshot_->ConceptQuarantined(c) ? "1" : "0");
  const uint32_t* rank = snapshot_->RankOrder();
  for (uint64_t i = 0; i < take; ++i) {
    const uint32_t pair = rank[begin + i];
    out += '\t';
    out += snapshot_->InstanceName(snapshot_->PairInstance(pair));
    out += '=';
    out += FormatScore(snapshot_->PairScore(pair));
  }
  return out;
}

std::string QueryEngine::ConceptsOf(const std::vector<std::string_view>& args) {
  if (args.empty()) return "ERR\tusage: concepts-of <instance>";
  std::string name = JoinRange(args, 0, args.size());
  uint32_t e = snapshot_->FindInstance(name);
  if (e == SnapshotReader::kNoId) return "NOT_FOUND\t" + name;

  const uint64_t begin = snapshot_->InstanceBegin(e);
  const uint64_t end = snapshot_->InstanceEnd(e);
  std::string out = "OK\tn=" + std::to_string(end - begin);
  for (uint64_t i = begin; i < end; ++i) {
    out += '\t';
    out += snapshot_->ConceptName(snapshot_->InvConcept(i));
    out += '=';
    out += FormatScore(snapshot_->PairScore(snapshot_->InvPairIndex(i)));
  }
  return out;
}

std::string QueryEngine::IsA(const std::vector<std::string_view>& args) {
  uint32_t e = 0, c = 0;
  std::string miss;
  if (args.size() < 2) return "ERR\tusage: is-a <instance> <concept>";
  if (!SplitTwoNames(args, /*first_is_instance=*/true, /*second_is_instance=*/false,
                     &e, &c, &miss)) {
    return "NOT_FOUND\t" + miss;
  }
  const uint64_t pair = snapshot_->FindPair(c, e);
  if (pair == SnapshotReader::kNoPair) return "OK\tno";
  std::string out = "OK\tyes\tscore=" + FormatScore(snapshot_->PairScore(pair)) +
                    "\tsupport=" + std::to_string(snapshot_->PairSupport(pair)) +
                    "\titer1=" + std::to_string(snapshot_->PairIter1(pair));
  if (snapshot_->ConceptQuarantined(c)) out += "\tquarantined";
  return out;
}

std::string QueryEngine::DriftScore(const std::vector<std::string_view>& args) {
  uint32_t e = 0, c = 0;
  std::string miss;
  if (args.size() < 2) return "ERR\tusage: drift-score <instance> <concept>";
  if (!SplitTwoNames(args, /*first_is_instance=*/true, /*second_is_instance=*/false,
                     &e, &c, &miss)) {
    return "NOT_FOUND\t" + miss;
  }
  // A known pair that is not live scores 0, matching ScoreCache::Get.
  const uint64_t pair = snapshot_->FindPair(c, e);
  const double score = pair == SnapshotReader::kNoPair ? 0.0 : snapshot_->PairScore(pair);
  return "OK\t" + FormatScore(score);
}

std::string QueryEngine::Mutex(const std::vector<std::string_view>& args) {
  uint32_t a = 0, b = 0;
  std::string miss;
  if (args.size() < 2) return "ERR\tusage: mutex <concept> <concept>";
  if (!SplitTwoNames(args, /*first_is_instance=*/false, /*second_is_instance=*/false,
                     &a, &b, &miss)) {
    return "NOT_FOUND\t" + miss;
  }
  if (a == b) return "OK\tno\teffsim=1";
  if (!snapshot_->MutexUsable(a) || !snapshot_->MutexUsable(b)) {
    return "OK\tno\tunusable";
  }
  std::string out = snapshot_->IsMutex(a, b) ? "OK\tyes\teffsim=" : "OK\tno\teffsim=";
  out += FormatScore(snapshot_->EffectiveSim(a, b));
  return out;
}

bool QueryEngine::SplitTwoNames(const std::vector<std::string_view>& args,
                                bool first_is_instance, bool second_is_instance,
                                uint32_t* first_out, uint32_t* second_out,
                                std::string* miss) const {
  auto resolve = [this](const std::string& name, bool is_instance) {
    return is_instance ? snapshot_->FindInstance(name) : snapshot_->FindConcept(name);
  };
  for (size_t i = 1; i < args.size(); ++i) {
    std::string first = JoinRange(args, 0, i);
    std::string second = JoinRange(args, i, args.size());
    uint32_t f = resolve(first, first_is_instance);
    uint32_t s = resolve(second, second_is_instance);
    if (f != SnapshotReader::kNoId && s != SnapshotReader::kNoId) {
      *first_out = f;
      *second_out = s;
      return true;
    }
    if (i == 1) *miss = f == SnapshotReader::kNoId ? first : second;
  }
  return false;
}

bool QueryEngine::CacheGet(const std::string& key, std::string* response) {
  if (per_shard_capacity_.load(std::memory_order_relaxed) == 0) return false;
  Shard& shard =
      *shards_[std::hash<std::string_view>{}(key) % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) return false;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *response = it->second->second;
  return true;
}

void QueryEngine::CachePut(const std::string& key, const std::string& response) {
  const size_t per_shard = per_shard_capacity_.load(std::memory_order_relaxed);
  if (per_shard == 0) return;
  Shard& shard =
      *shards_[std::hash<std::string_view>{}(key) % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = response;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(key, response);
  // The map key views the list node's string, which is address-stable.
  shard.index.emplace(std::string_view(shard.lru.front().first), shard.lru.begin());
  if (shard.lru.size() > per_shard) {
    shard.index.erase(std::string_view(shard.lru.back().first));
    shard.lru.pop_back();
  }
}

std::string QueryEngine::FormatStats() const {
  std::string out = "OK\tstats";
  for (int i = 0; i < kNumTypes; ++i) {
    if (static_cast<QueryType>(i) == QueryType::kStats ||
        static_cast<QueryType>(i) == QueryType::kMetrics) {
      continue;
    }
    const QueryTypeStats s = stats_ptr_->Snapshot(static_cast<QueryType>(i));
    out += '\t';
    out += kTypeNames[i];
    out += "=count:" + std::to_string(s.count) +
           ",hits:" + std::to_string(s.cache_hits) +
           ",errors:" + std::to_string(s.errors) +
           ",mean_ns:" + std::to_string(static_cast<uint64_t>(s.MeanNs())) +
           ",max_ns:" + std::to_string(s.max_ns);
  }
  // Hot-swap and admission-control counters (all 0 for single-snapshot
  // serving: CounterValue reads 0 for never-registered names). Appended last
  // so older consumers that split on the per-verb fields keep parsing.
  out += "\tgeneration=" + std::to_string(options_.generation) +
         "\tswaps=" + std::to_string(GlobalMetrics().CounterValue("serve.swap.count")) +
         "\tfailed_publishes=" +
         std::to_string(GlobalMetrics().CounterValue("serve.publish.failed")) +
         "\trolled_back=" +
         std::to_string(GlobalMetrics().CounterValue("serve.publish.rolled_back")) +
         "\tshed=" + std::to_string(GlobalMetrics().CounterValue("batch.shed"));
  return out;
}

}  // namespace semdrift
