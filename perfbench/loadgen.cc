#include "loadgen.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <thread>

#include "net/net_client.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using semdrift::LineClient;
using semdrift::Rng;
using semdrift::ZipfSampler;

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Outcome of one response against the expected answer table.
struct Check {
  bool failed = false;
  bool mismatched = false;
};

Check Classify(const RequestSet& requests, uint64_t index, const std::string& response) {
  Check check;
  if (IsFailure(response)) {
    check.failed = true;
  } else if (!requests.expected.empty() &&
             response != requests.expected[index % requests.expected.size()]) {
    check.failed = true;
    check.mismatched = true;
  }
  return check;
}

const std::string& LineAt(const RequestSet& requests, uint64_t index) {
  return requests.lines[index % requests.lines.size()];
}

/// Sleeps until shortly before `due_ns`, then spins: on a busy host a sleep
/// alone wakes up to a millisecond late, which would be charged to every
/// request's latency.
void SleepUntilNs(int64_t due_ns) {
  constexpr int64_t kSpinNs = 200000;
  const int64_t now = NowNs();
  if (due_ns - kSpinNs > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - kSpinNs - now));
  }
  while (NowNs() < due_ns) {
  }
}

}  // namespace

std::vector<std::string> MakeRequestLines(
    const std::vector<std::pair<std::string, std::string>>& pairs, KeyDist dist,
    uint64_t seed, size_t count) {
  std::vector<std::string> lines;
  if (pairs.empty()) return lines;
  Rng rng(seed);
  std::vector<size_t> order(pairs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  rng.Shuffle(&order);
  const ZipfSampler zipf(dist == KeyDist::kZipf ? pairs.size() : 1, kZipfExponent);
  auto draw = [&]() -> const std::pair<std::string, std::string>& {
    const size_t rank =
        dist == KeyDist::kZipf ? zipf.Sample(&rng) : rng.NextBounded(pairs.size());
    return pairs[order[rank]];
  };
  lines.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const auto& [concept_name, instance] = draw();
    // The five verbs evenly, as bench_serve issues one of each per concept.
    switch (rng.NextBounded(5)) {
      case 0:
        lines.push_back("instances-of\t" + concept_name + "\t8");
        break;
      case 1:
        lines.push_back("concepts-of\t" + instance);
        break;
      case 2:
        lines.push_back("is-a\t" + instance + "\t" + concept_name);
        break;
      case 3:
        lines.push_back("drift-score\t" + instance + "\t" + concept_name);
        break;
      default:
        lines.push_back("mutex\t" + concept_name + "\t" + draw().first);
    }
  }
  return lines;
}

bool IsFailure(const std::string& response) {
  return response.empty() || response.rfind("ERR", 0) == 0 ||
         response.rfind("OVERLOADED", 0) == 0;
}

OpenLoopResult RunOpenLoop(const OpenLoopOptions& options, const RequestSet& requests) {
  OpenLoopResult result;
  result.rate = options.rate;
  const int conns = std::max(1, options.connections);
  const uint64_t total = RequestsFor(options.rate, options.seconds);

  struct PerConn {
    LineClient client;
    bool connected = false;
    uint64_t count = 0;
    std::vector<double> late_us;
    std::vector<double> latency_us;  // Indexed by the connection's k-th request.
    uint64_t sent = 0;
    uint64_t ok = 0;
    uint64_t failed = 0;
    uint64_t mismatched = 0;
  };
  std::vector<PerConn> per(conns);
  for (int c = 0; c < conns; ++c) {
    auto client = LineClient::Connect(options.endpoint);
    if (!client.ok()) continue;
    per[c].client = std::move(*client);
    per[c].connected = true;
    per[c].count = total / conns + (static_cast<uint64_t>(c) < total % conns ? 1 : 0);
    per[c].late_us.reserve(per[c].count);
    per[c].latency_us.assign(per[c].count, kInfinity);
  }

  // Start a little in the future so every thread is parked before the first
  // request is due.
  const int64_t start_ns = NowNs() + 5'000'000;
  auto due_of = [&](int c, uint64_t k) {
    const uint64_t i = k * static_cast<uint64_t>(conns) + static_cast<uint64_t>(c);
    return start_ns + DueOffsetNs(i, options.rate);
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    if (!per[c].connected) continue;
    PerConn* pc = &per[c];
    threads.emplace_back([&, c, pc] {
      // Default timer slack (50 us) would add itself to every latency.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      for (uint64_t k = 0; k < pc->count; ++k) {
        const int64_t due = due_of(c, k);
        SleepUntilNs(due);
        const int64_t sent_at = NowNs();
        const uint64_t index = options.offset + k * conns + c;
        if (!pc->client.SendLine(LineAt(requests, index)).ok()) break;
        pc->late_us.push_back(static_cast<double>(sent_at - due) * 1e-3);
        ++pc->sent;
      }
    });
    threads.emplace_back([&, c, pc] {
      for (uint64_t k = 0; k < pc->count; ++k) {
        auto line = pc->client.ReadLine();
        const int64_t done_at = NowNs();
        if (!line.ok()) break;
        const uint64_t index = options.offset + k * conns + c;
        const Check check = Classify(requests, index, *line);
        if (check.failed) {
          ++pc->failed;
          pc->mismatched += check.mismatched ? 1 : 0;
          continue;  // Latency stays +infinity: a failure misses any limit.
        }
        ++pc->ok;
        pc->latency_us[k] = static_cast<double>(done_at - due_of(c, k)) * 1e-3;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<double> latency, late, final_tenth;
  std::vector<double> due_ordered(total, kInfinity);
  const int64_t final_from = start_ns + DueOffsetNs(total - total / 10, options.rate);
  for (int c = 0; c < conns; ++c) {
    const PerConn& pc = per[c];
    result.sent += pc.sent;
    result.ok += pc.ok;
    result.mismatched += pc.mismatched;
    latency.insert(latency.end(), pc.latency_us.begin(), pc.latency_us.end());
    late.insert(late.end(), pc.late_us.begin(), pc.late_us.end());
    for (uint64_t k = 0; k < pc.count; ++k) {
      if (due_of(c, k) >= final_from) final_tenth.push_back(pc.latency_us[k]);
      due_ordered[k * conns + c] = pc.latency_us[k];
    }
  }
  // Everything scheduled and not answered OK failed (never connected, a send
  // error, an early EOF, or an ERR/OVERLOADED/wrong answer).
  result.failed = total - result.ok;
  if (options.keep_samples) {
    result.latency_samples = latency;
    result.late_samples = late;
  }
  std::vector<double> late_sorted = late;
  std::sort(late_sorted.begin(), late_sorted.end());
  const double late_p90_us = PercentileSorted(late_sorted, 0.9);
  result.latency_us = Summarize(std::move(latency));
  result.late_us = Summarize(std::move(late));
  result.final_p50_us = Median(std::move(final_tenth));
  result.window_p50_us = MedianWindowQuantile(due_ordered, options.window_requests, 0.5);
  // Lateness from a host stall that also stalls the server is part of the
  // measurement (latency is timed from the due time); the generator itself
  // fell behind when it could not send everything or a tenth of its
  // requests left later than the limit.
  result.behind = result.sent < total || late_p90_us > options.late_limit_us;
  result.backlog = result.final_p50_us > options.limit_us;
  result.passed = !result.behind && !result.backlog && result.failed == 0 &&
                  result.latency_us.tail <= options.limit_us;
  return result;
}

ClosedLoopResult RunClosedLoop(const std::string& endpoint, const RequestSet& requests,
                               uint64_t offset, uint64_t count, int connections,
                               int window) {
  ClosedLoopResult result;
  const int conns = std::max(1, connections);
  struct PerConn {
    uint64_t ok = 0;
    uint64_t failed = 0;
    uint64_t mismatched = 0;
    uint64_t sent = 0;
    std::vector<double> latency_us;
  };
  std::vector<PerConn> per(conns);
  const int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      PerConn& pc = per[c];
      const uint64_t mine = count / conns + (static_cast<uint64_t>(c) < count % conns ? 1 : 0);
      auto client = LineClient::Connect(endpoint);
      if (!client.ok()) return;
      pc.latency_us.reserve(mine);
      std::vector<int64_t> sent_at(mine, 0);
      auto index_of = [&](uint64_t k) { return offset + k * conns + c; };
      uint64_t next = 0;
      auto send = [&]() {
        sent_at[next] = NowNs();
        if (!client->SendLine(LineAt(requests, index_of(next))).ok()) return false;
        ++next;
        ++pc.sent;
        return true;
      };
      while (next < mine && next < static_cast<uint64_t>(window)) {
        if (!send()) return;
      }
      for (uint64_t k = 0; k < mine; ++k) {
        auto line = client->ReadLine();
        if (!line.ok()) return;
        pc.latency_us.push_back(static_cast<double>(NowNs() - sent_at[k]) * 1e-3);
        const Check check = Classify(requests, index_of(k), *line);
        if (check.failed) {
          ++pc.failed;
          pc.mismatched += check.mismatched ? 1 : 0;
        } else {
          ++pc.ok;
        }
        if (next < mine && !send()) return;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  std::vector<double> latency;
  for (const PerConn& pc : per) {
    result.sent += pc.sent;
    result.ok += pc.ok;
    result.mismatched += pc.mismatched;
    latency.insert(latency.end(), pc.latency_us.begin(), pc.latency_us.end());
  }
  for (double us : latency) result.latency_sum_us += us;
  result.failed = count - result.ok;
  result.latency_us = Summarize(std::move(latency));
  return result;
}

uint64_t ParseGeneration(const std::string& stats_response) {
  const std::string key = "generation=";
  const size_t at = stats_response.find(key);
  if (at == std::string::npos) return 0;
  uint64_t value = 0;
  for (size_t i = at + key.size(); i < stats_response.size(); ++i) {
    const char ch = stats_response[i];
    if (ch < '0' || ch > '9') break;
    value = value * 10 + static_cast<uint64_t>(ch - '0');
  }
  return value;
}

double ParseCacheHitRate(const std::string& stats_response) {
  // Per-verb fields read "<verb>=count:<n>,hits:<n>,...".
  auto read_after = [&](size_t from, const std::string& key, uint64_t* value) {
    const size_t at = stats_response.find(key, from);
    if (at == std::string::npos) return std::string::npos;
    *value = 0;
    size_t i = at + key.size();
    for (; i < stats_response.size(); ++i) {
      const char ch = stats_response[i];
      if (ch < '0' || ch > '9') break;
      *value = *value * 10 + static_cast<uint64_t>(ch - '0');
    }
    return i;
  };
  uint64_t count = 0, hits = 0;
  size_t pos = 0;
  while (true) {
    uint64_t c = 0, h = 0;
    pos = read_after(pos, "=count:", &c);
    if (pos == std::string::npos) break;
    pos = read_after(pos, ",hits:", &h);
    if (pos == std::string::npos) break;
    count += c;
    hits += h;
  }
  return count == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(count);
}

}  // namespace perfbench
