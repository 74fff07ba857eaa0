// Load generation against a NetServer over its line protocol, from the
// benchmark's own threads: seeded request lines, an open-loop generator that
// times every request from when it was due, a closed-loop pipelined pass,
// and a generation probe.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

/// A request sequence (cycled) and, optionally, the byte-exact answer each
/// line must get. An empty `expected` disables the answer check.
struct RequestSet {
  std::vector<std::string> lines;
  std::vector<std::string> expected;
};

/// Key distribution of a request sequence.
enum class KeyDist { kZipf, kUniform };

/// Exponent of the skewed key distribution: YCSB's default Zipfian request
/// constant (Cooper et al., "Benchmarking Cloud Serving Systems with YCSB",
/// SoCC 2010).
constexpr double kZipfExponent = 0.99;

/// `count` request lines over the (concept, instance) pairs `pairs`: each
/// line one of the five data verbs with equal odds, its key drawn by `dist`
/// (ranks of a seeded shuffle; semdrift::ZipfSampler for kZipf).
std::vector<std::string> MakeRequestLines(
    const std::vector<std::pair<std::string, std::string>>& pairs, KeyDist dist,
    uint64_t seed, size_t count);

/// True for responses that count as failures (ERR, OVERLOADED, empty).
bool IsFailure(const std::string& response);

struct OpenLoopOptions {
  std::string endpoint;
  double rate = 1000.0;      ///< Requests per second across all connections.
  double seconds = 1.0;      ///< Schedule length.
  int connections = 1;       ///< One sender and one receiver thread each.
  uint64_t offset = 0;       ///< First index into the request sequence.
  double limit_us = 1000.0;  ///< Latency limit on the tail percentile.
  /// The generator counts as behind (the rung is invalid) when it could not
  /// send everything or its p90 lateness exceeds this.
  double late_limit_us = 1000.0;
  /// Window size for OpenLoopResult::window_p50_us.
  size_t window_requests = 2000;
  /// Also return the raw per-request samples.
  bool keep_samples = false;
};

struct OpenLoopResult {
  double rate = 0.0;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;      ///< ERR/OVERLOADED/IO errors and wrong answers.
  uint64_t mismatched = 0;  ///< Answers that differ from `expected`.
  /// Completion minus due time per request; failures count as +infinity.
  Tail latency_us;
  /// Send minus due time per request.
  Tail late_us;
  /// Median over consecutive windows of `window_requests` requests (in due
  /// order) of each window's p50: an estimate that one stall of a shared
  /// host cannot move on its own.
  double window_p50_us = 0.0;
  /// p50 latency over the last tenth of the schedule.
  double final_p50_us = 0.0;
  bool behind = false;   ///< The generator fell behind its schedule.
  bool backlog = false;  ///< Latency at the end of the rung above the limit.
  bool passed = false;   ///< Valid, no failure, no backlog, tail within limit.
  /// Raw samples (only with keep_samples).
  std::vector<double> latency_samples;
  std::vector<double> late_samples;
};

/// Runs one open-loop rung: request i is due at start + i / rate and goes
/// to connection i % connections; each response is timed from its due time.
OpenLoopResult RunOpenLoop(const OpenLoopOptions& options, const RequestSet& requests);

struct ClosedLoopResult {
  double wall_s = 0.0;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  Tail latency_us;  ///< Send to completion.
  double latency_sum_us = 0.0;
};

/// Closed loop with a window: each connection keeps `window` requests in
/// flight until `count` requests (split across connections) are answered.
ClosedLoopResult RunClosedLoop(const std::string& endpoint, const RequestSet& requests,
                               uint64_t offset, uint64_t count, int connections,
                               int window);

/// Parses "generation=<n>" out of a `stats` response (0 when absent).
uint64_t ParseGeneration(const std::string& stats_response);

/// Result-cache hits over requests, summed over the verbs of a `stats`
/// response (0 when it counts no request).
double ParseCacheHitRate(const std::string& stats_response);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
