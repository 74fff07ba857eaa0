#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

double PercentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double TailQuantile(size_t n, double cap, size_t beyond) {
  if (n <= beyond) return 0.0;
  const double q = static_cast<double>(n - beyond) / static_cast<double>(n);
  return std::min(cap, q);
}

Tail Summarize(std::vector<double> values) {
  Tail tail;
  std::sort(values.begin(), values.end());
  tail.n = values.size();
  tail.p50 = PercentileSorted(values, 0.5);
  tail.tail_q = TailQuantile(values.size());
  tail.tail = tail.tail_q > 0.0 ? PercentileSorted(values, tail.tail_q)
                                : (values.empty() ? 0.0 : values.back());
  return tail;
}

double MedianWindowQuantile(const std::vector<double>& samples, size_t window, double q) {
  auto quantile = [q](std::vector<double> w) {
    std::sort(w.begin(), w.end());
    return PercentileSorted(w, q);
  };
  if (window == 0 || samples.size() < 2 * window) return quantile(samples);
  std::vector<double> per_window;
  for (size_t begin = 0; begin + window <= samples.size(); begin += window) {
    per_window.push_back(quantile(std::vector<double>(
        samples.begin() + static_cast<long>(begin),
        samples.begin() + static_cast<long>(begin + window))));
  }
  return Median(std::move(per_window));
}

int64_t DueOffsetNs(uint64_t i, double rate) {
  return static_cast<int64_t>(std::llround(static_cast<double>(i) * 1e9 / rate));
}

uint64_t RequestsFor(double rate, double seconds) {
  const double n = std::floor(rate * seconds);
  return n < 1.0 ? 1 : static_cast<uint64_t>(n);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CpuWallTimer::CpuWallTimer() : start_ns_(NowNs()), start_cpu_(ProcessCpuSeconds()) {}

double CpuWallTimer::WallSeconds() const {
  return static_cast<double>(NowNs() - start_ns_) * 1e-9;
}

double CpuWallTimer::CpuSeconds() const { return ProcessCpuSeconds() - start_cpu_; }

HistogramWindow::HistogramWindow(std::string name)
    : name_(std::move(name)),
      before_(semdrift::GlobalMetrics().HistogramValues(name_)) {}

HistogramWindow::Delta HistogramWindow::Take() const {
  semdrift::HistogramSnapshot after = semdrift::GlobalMetrics().HistogramValues(name_);
  Delta delta;
  delta.count = after.count - before_.count;
  delta.sum = after.sum - before_.sum;
  delta.upper_bounds = after.upper_bounds;
  delta.buckets = after.buckets;
  for (size_t i = 0; i < delta.buckets.size() && i < before_.buckets.size(); ++i) {
    delta.buckets[i] -= before_.buckets[i];
  }
  return delta;
}

double HistogramWindow::Delta::Quantile(double q) const {
  if (count == 0 || upper_bounds.empty()) return 0.0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count) - 1e-9)));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) return upper_bounds[std::min(i, upper_bounds.size() - 1)];
  }
  return upper_bounds.back();
}

CounterWindow::CounterWindow(std::string name)
    : name_(std::move(name)), before_(semdrift::GlobalMetrics().CounterValue(name_)) {}

uint64_t CounterWindow::Take() const {
  return semdrift::GlobalMetrics().CounterValue(name_) - before_;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},   {"freshness_s", "s"},  {"p50_us", "us"},
      {"precision", "frac"}, {"peak_rss_mb", "MiB"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"traced_wall_s", "s"},
      {"extract.run_s", "s"},
      {"extract.iterations", "count"},
      {"extract.extractions", "count"},
      {"mutex.build_s", "s"},
      {"rank.warm_s", "s"},
      {"rank.warm_cpu_ratio", "ratio"},
      {"dp.seeds_s", "s"},
      {"dp.collect_s", "s"},
      {"dp.collect_cpu_ratio", "ratio"},
      {"dp.labeled_rows", "count"},
      {"dp.collect_rows", "count"},
      {"dp.train_s", "s"},
      {"dp.train_calls", "count"},
      {"ml.pool_build_s", "s"},
      {"ml.kpca_fit_s", "s"},
      {"ml.kpca_project_s", "s"},
      {"ml.manifold_s", "s"},
      {"ml.task_build_s", "s"},
      {"ml.solve_s", "s"},
      {"ml.solve_iterations", "count"},
      {"ml.kpca_components", "count"},
      {"ml.pool_rows", "count"},
      {"ml.tasks", "count"},
      {"dp.classify_s", "s"},
      {"dp.classify_cpu_ratio", "ratio"},
      {"dp.detections", "count"},
      {"dp.adjudicate_s", "s"},
      {"dp.eq21_checks", "count"},
      {"dp.eq21_rollback_frac", "frac"},
      {"kb.records_rolled_back", "count"},
      {"dp.rounds", "count"},
      {"serve.compile_s", "s"},
      {"serve.image_bytes", "bytes"},
      {"stream.incremental_epoch_s", "s"},
      {"stream.rebuild_epoch_s", "s"},
      {"stream.dirty_concepts", "count"},
      {"stream.publish_bytes", "bytes"},
      {"serve.swap_ms", "ms"},
      {"freshness_max_s", "s"},
      {"serve.engine_us_p50", "us"},
      {"serve.engine_us_p99", "us"},
      {"serve.cache_hit_rate", "frac"},
      {"serve.batcher_us_p50", "us"},
      {"serve.batcher_us_p99", "us"},
      {"batch.queue_wait_us_p99", "us"},
      {"batch.size_mean", "count"},
      {"net.roundtrip_us_p50", "us"},
      {"net.closed_loop_s", "s"},
      {"net.backpressure_pauses", "count"},
      {"net.shed", "count"},
      {"loadgen.max_ok_qps", "1/s"},
      {"loadgen.p99_us", "us"},
      {"loadgen.late_us_p99", "us"},
      {"loadgen.invalid_frac", "frac"},
      {"failed_frac", "frac"},
      {"unattributed_s", "s"},
      {"trace_overhead_s", "s"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& Report::Table() const {
  return traced_ ? PerLayerMetrics() : EndToEndMetrics();
}

void Report::Set(const std::string& name, double value) {
  bool known = false;
  for (const MetricSpec& spec : Table()) known = known || name == spec.name;
  if (!known) {
    std::fprintf(stderr, "perfbench: metric %s is not in the %s table\n",
                 name.c_str(), traced_ ? "per-layer" : "end-to-end");
    std::abort();
  }
  values_[name] = value;
}

void Report::SetNotMeasured(const std::string& name) {
  Set(name, 0.0);
  not_measured_.push_back(name);
}

std::vector<std::string> Report::Missing() const {
  std::vector<std::string> missing;
  for (const MetricSpec& spec : Table()) {
    if (!Has(spec.name)) missing.push_back(spec.name);
  }
  return missing;
}

std::string Report::ResultLine(bool correct, uint64_t attempted,
                               uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : Table()) {
    auto it = values_.find(spec.name);
    if (it == values_.end()) continue;
    if (!first) out += ", ";
    first = false;
    out += JsonString(spec.name) + ": {\"value\": " + JsonNumber(it->second) +
           ", \"unit\": " + JsonString(spec.unit) + "}";
  }
  out += "}}";
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
