// Unit tests of the benchmark's own measurement rules. Exit code 0 when all
// pass; each failure prints its expression and line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "loadgen.h"
#include "stats.h"
#include "util/rng.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "FAIL line %d: %s\n", __LINE__, #cond);    \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using namespace perfbench;

void TestPercentileRule() {
  // Nearest rank: 1..100, p50 is 50, p99 is 99.
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT(PercentileSorted(v, 0.5) == 50);
  EXPECT(PercentileSorted(v, 0.99) == 99);
  EXPECT(PercentileSorted(v, 1.0) == 100);
  EXPECT(PercentileSorted({}, 0.5) == 0);

  // The tail percentile keeps at least ten samples beyond it.
  EXPECT(TailQuantile(10) == 0.0);
  EXPECT(std::fabs(TailQuantile(20) - 0.5) < 1e-12);
  EXPECT(std::fabs(TailQuantile(100) - 0.9) < 1e-12);
  EXPECT(std::fabs(TailQuantile(1000) - 0.99) < 1e-12);
  EXPECT(std::fabs(TailQuantile(100000) - 0.99) < 1e-12);
  for (size_t n : {11u, 57u, 100u, 999u, 1000u, 1001u, 54321u}) {
    const double q = TailQuantile(n);
    const size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
    EXPECT(n - rank >= 10);
  }

  // Summarize reports the sample count and the percentile it used.
  const Tail t = Summarize(v);
  EXPECT(t.n == 100);
  EXPECT(t.p50 == 50);
  EXPECT(std::fabs(t.tail_q - 0.9) < 1e-12);
  EXPECT(t.tail == 90);
  std::vector<double> many;
  for (int i = 5000; i >= 1; --i) many.push_back(i);  // Unsorted input.
  const Tail m = Summarize(many);
  EXPECT(m.n == 5000 && m.p50 == 2500 && m.tail_q == 0.99 && m.tail == 4950);
  EXPECT(Summarize({1, 2, 3}).tail_q == 0.0);
  EXPECT(Median({3, 1, 2}) == 2);

  // Windowed quantiles: the median over windows ignores one bad window.
  std::vector<double> windows;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 100; ++i) windows.push_back(w == 2 ? 1000.0 * i : i);
  }
  EXPECT(MedianWindowQuantile(windows, 100, 0.9) == 90);
  EXPECT(MedianWindowQuantile(v, 100, 0.5) == 50);        // One window: plain.
}

void TestZipfAndKeysDeterministic() {
  // The library's sampler at the benchmark's exponent: a fixed sequence per
  // seed, head-heavy.
  const semdrift::ZipfSampler zipf(1000, kZipfExponent);
  semdrift::Rng a(42), b(42), c(43);
  std::vector<size_t> xa, xb, xc;
  for (int i = 0; i < 2000; ++i) {
    xa.push_back(zipf.Sample(&a));
    xb.push_back(zipf.Sample(&b));
    xc.push_back(zipf.Sample(&c));
  }
  EXPECT(xa == xb);
  EXPECT(xa != xc);
  size_t head = 0;
  for (size_t x : xa) {
    EXPECT(x < 1000);
    head += x < 10 ? 1 : 0;
  }
  // Ranks 0..9 carry ~39% of Zipf(0.99) mass over 1000 ranks; uniform, 1%.
  EXPECT(head > 2000 * 0.3);

  // Request lines: the same seed gives the same lines, another seed other
  // lines; the five verbs come evenly; the most repeated Zipf line repeats
  // far more often than the most repeated uniform one.
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 2000; ++i) {
    pairs.emplace_back("c" + std::to_string(i % 50), "e" + std::to_string(i));
  }
  const auto z1 = MakeRequestLines(pairs, KeyDist::kZipf, 9, 20000);
  const auto z2 = MakeRequestLines(pairs, KeyDist::kZipf, 9, 20000);
  const auto z3 = MakeRequestLines(pairs, KeyDist::kZipf, 10, 20000);
  const auto u1 = MakeRequestLines(pairs, KeyDist::kUniform, 9, 20000);
  EXPECT(z1.size() == 20000 && z1 == z2 && z1 != z3);
  EXPECT(u1 == MakeRequestLines(pairs, KeyDist::kUniform, 9, 20000));
  std::map<std::string, size_t> verbs;
  for (const std::string& line : u1) ++verbs[line.substr(0, line.find('\t'))];
  EXPECT(verbs.size() == 5);
  for (const auto& [verb, n] : verbs) EXPECT(n > 3600 && n < 4400);
  auto top_count = [](const std::vector<std::string>& lines) {
    std::map<std::string, size_t> counts;
    size_t top = 0;
    for (const std::string& line : lines) top = std::max(top, ++counts[line]);
    return top;
  };
  EXPECT(top_count(z1) > 4 * top_count(u1));
}

void TestDueTimes() {
  // 1000 qps: request i is due i ms after the start, exactly.
  for (uint64_t i = 0; i < 5000; ++i) EXPECT(DueOffsetNs(i, 1000.0) == static_cast<int64_t>(i) * 1000000);
  // Strictly increasing and evenly spaced at an awkward rate.
  int64_t prev = -1;
  for (uint64_t i = 0; i < 100000; ++i) {
    const int64_t due = DueOffsetNs(i, 3333.0);
    EXPECT(due > prev);
    prev = due;
  }
  EXPECT(std::llabs(DueOffsetNs(3333, 3333.0) - 1000000000) <= 1);
  EXPECT(RequestsFor(4000.0, 2.5) == 10000);
  EXPECT(RequestsFor(0.1, 1.0) == 1);
}

void TestMetricTables() {
  std::set<std::string> names;
  for (const MetricSpec& m : EndToEndMetrics()) EXPECT(names.insert(m.name).second);
  for (const MetricSpec& m : PerLayerMetrics()) EXPECT(names.insert(m.name).second);
  bool has_setup = false;
  for (const MetricSpec& m : EndToEndMetrics()) {
    has_setup = has_setup || (std::string(m.name) == "setup_s" && std::string(m.unit) == "s");
  }
  EXPECT(has_setup);
  Report report(false);
  EXPECT(report.Missing().size() == EndToEndMetrics().size());
  report.Set("setup_s", 1.25);
  // A metric marked as not measured prints 0, is listed, and is not missing.
  report.SetNotMeasured("p50_us");
  EXPECT(report.Missing().size() == EndToEndMetrics().size() - 2);
  EXPECT(report.NotMeasured() == std::vector<std::string>{"p50_us"});
  const std::string line = report.ResultLine(true, 3, 0);
  EXPECT(line.find("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}") != std::string::npos);
  EXPECT(line.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0", 0) == 0);
}

void TestResponses() {
  EXPECT(IsFailure("ERR\tusage"));
  EXPECT(IsFailure("OVERLOADED\tqueue-wait p99 over deadline budget; request shed"));
  EXPECT(IsFailure(""));
  EXPECT(!IsFailure("NOT_FOUND\tx"));
  EXPECT(!IsFailure("OK\tyes"));
  EXPECT(ParseGeneration("OK\tqueries=3\tgeneration=12\tshards=1") == 12);
  EXPECT(ParseGeneration("OK") == 0);
  EXPECT(ParseCacheHitRate("OK\tis-a=count:30,hits:20,errors:0,mean_ns:5,max_ns:9"
                           "\tmutex=count:10,hits:0,errors:0,mean_ns:5,max_ns:9"
                           "\tgeneration=3") == 0.5);
  EXPECT(ParseCacheHitRate("OK\tgeneration=3") == 0.0);
}

}  // namespace

int main() {
  TestPercentileRule();
  TestZipfAndKeysDeterministic();
  TestDueTimes();
  TestMetricTables();
  TestResponses();
  if (g_failures == 0) std::printf("perfbench_test: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
