// Measurement helpers shared by the perfbench workloads: the percentile rule,
// open-loop due times, CPU/RSS probes,
// deltas of the program's own GlobalMetrics() histograms, and the metric
// table every printed metric must come from.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// 1-based rank ceil(q * n). `q` in (0, 1]; an empty sample gives 0.
double PercentileSorted(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (upper median for even sizes, the
/// nearest-rank rule at q = 0.5).
double Median(std::vector<double> values);

/// Arithmetic mean (0 for an empty sample).
double Mean(const std::vector<double>& values);

/// The highest percentile that still has at least `beyond` samples above it
/// under the nearest-rank rule, capped at `cap`: min(cap, (n - beyond) / n).
/// Returns 0 when n <= beyond (no such percentile).
double TailQuantile(size_t n, double cap = 0.99, size_t beyond = 10);

/// A latency sample reduced to its median and tail.
struct Tail {
  size_t n = 0;
  double p50 = 0.0;
  /// Quantile the tail was taken at (TailQuantile(n)); 0 when n <= 10.
  double tail_q = 0.0;
  double tail = 0.0;
};

/// Sorts `values` and applies the percentile rule.
Tail Summarize(std::vector<double> values);

/// Splits `samples` into consecutive windows of `window` samples (a short
/// last window is dropped), takes quantile `q` of each, and returns the
/// median over windows. With fewer than two full windows it is the quantile
/// of the whole sample.
double MedianWindowQuantile(const std::vector<double>& samples, size_t window, double q);

/// Open-loop schedule: request i (0-based, across all connections) is due
/// i / rate seconds after the start of the rung.
int64_t DueOffsetNs(uint64_t i, double rate);

/// Requests a rung of `seconds` at `rate` schedules (at least 1).
uint64_t RequestsFor(double rate, double seconds);

/// Process CPU seconds (user + system) from getrusage.
double ProcessCpuSeconds();

/// Peak resident set size of this process in MiB (getrusage ru_maxrss).
double PeakRssMb();

/// Wall and CPU time across a call: cpu / wall is the fan-out the call got.
class CpuWallTimer {
 public:
  CpuWallTimer();
  double WallSeconds() const;
  double CpuSeconds() const;

 private:
  int64_t start_ns_;
  double start_cpu_;
};

/// Steady-clock nanoseconds (shared epoch for all benchmark threads).
int64_t NowNs();

/// A GlobalMetrics() histogram observed across a window: construct before,
/// call Delta() after. Percentiles come from bucket upper bounds.
class HistogramWindow {
 public:
  explicit HistogramWindow(std::string name);
  struct Delta {
    uint64_t count = 0;
    double sum = 0.0;
    std::vector<double> upper_bounds;
    std::vector<uint64_t> buckets;
    /// Upper bound of the bucket holding nearest-rank quantile q (the last
    /// finite edge when it falls into the overflow bucket).
    double Quantile(double q) const;
    double Mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
  };
  Delta Take() const;

 private:
  std::string name_;
  semdrift::HistogramSnapshot before_;
};

/// A GlobalMetrics() counter observed across a window.
class CounterWindow {
 public:
  explicit CounterWindow(std::string name);
  uint64_t Take() const;

 private:
  std::string name_;
  uint64_t before_;
};

/// One metric the benchmark may print.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0 (every workload prints every one of these).
const std::vector<MetricSpec>& EndToEndMetrics();
/// Printed with --trace 1.
const std::vector<MetricSpec>& PerLayerMetrics();

/// Collects one run's metrics and renders the result line. Setting a name
/// outside the table, or leaving a table metric neither set nor marked as
/// not measured, is a benchmark bug and fails the run.
class Report {
 public:
  explicit Report(bool traced) : traced_(traced) {}
  void Set(const std::string& name, double value);
  /// Marks a table metric the workload does not measure: its layer does no
  /// work there, or the program records nothing for that work. It prints as
  /// 0 (every printed value is a number) and is listed by NotMeasured().
  void SetNotMeasured(const std::string& name);
  bool Has(const std::string& name) const { return values_.count(name) != 0; }
  const std::vector<std::string>& NotMeasured() const { return not_measured_; }
  /// Names of the table's metrics that were neither set nor marked.
  std::vector<std::string> Missing() const;
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  const std::vector<MetricSpec>& Table() const;
  bool traced_;
  std::map<std::string, double> values_;
  std::vector<std::string> not_measured_;
};

/// JSON string literal with the minimal escapes.
std::string JsonString(const std::string& s);
/// Shortest round-trip text of a double (%.17g); non-finite becomes null.
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
