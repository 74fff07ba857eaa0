// perfbench: one workload of the semdrift benchmark per invocation.
//
//   perfbench --workload batch-run|stream-live|serve-zipf|serve-uniform
//             --seed N [--seconds S] [--trace 0|1] [--work-dir D] [--commit C]
//   perfbench --list-metrics
//
// Prints an environment record line, then, as the last line, the result:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end table, with --trace 1 the per-layer table. Exits 1 when
// an output check fails, 2 on bad arguments.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/trace.h"
#include "util/thread_pool.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

int Usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload W --seed N [--seconds S] [--trace 0|1]\n"
               "                 [--work-dir D] [--commit C]\n"
               "       perfbench --list-metrics\n",
               error.c_str());
  return 2;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

std::string EnvLine(const RunContext& ctx, const std::string& commit) {
  std::string out = "{\"env\": {";
  out += "\"workload\": " + JsonString(ctx.workload);
  out += ", \"seed\": " + std::to_string(ctx.seed);
  out += ", \"seconds\": " + JsonNumber(ctx.seconds);
  out += ", \"trace\": " + std::to_string(ctx.traced ? 1 : 0);
  out += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ", \"threads\": " + std::to_string(ctx.threads);
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"compiler\": " + JsonString(std::string("gcc-compatible ") + __VERSION__);
  out += ", \"commit\": " + JsonString(commit);
  out += ", \"params\": {";
  for (size_t i = 0; i < ctx.params.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(ctx.params[i].first) + ": " + ctx.params[i].second;
  }
  out += "}, \"not_measured\": [";
  const std::vector<std::string>& not_measured = ctx.report.NotMeasured();
  for (size_t i = 0; i < not_measured.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(not_measured[i]);
  }
  out += "], \"check_failures\": [";
  for (size_t i = 0; i < ctx.check_failures.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(ctx.check_failures[i]);
  }
  return out + "]}}";
}

}  // namespace

int main(int argc, char** argv) {
  RunContext ctx;
  std::string commit = "unknown";
  bool have_seed = false;
  ctx.threads = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  ctx.work_dir = ".perfbench_work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      for (const MetricSpec& m : EndToEndMetrics()) std::printf("e2e %s %s\n", m.name, m.unit);
      for (const MetricSpec& m : PerLayerMetrics()) std::printf("layer %s %s\n", m.name, m.unit);
      return 0;
    }
    if (i + 1 >= argc) return Usage("missing value for " + arg);
    const std::string value = argv[++i];
    uint64_t n = 0;
    if (arg == "--workload") {
      ctx.workload = value;
    } else if (arg == "--seed") {
      if (!ParseUint(value, &ctx.seed)) return Usage("bad --seed " + value);
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!ParseUint(value, &n) || n == 0 || n > 600) return Usage("bad --seconds " + value);
      ctx.seconds = static_cast<double>(n);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace " + value);
      ctx.traced = value == "1";
    } else if (arg == "--work-dir") {
      ctx.work_dir = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      return Usage("unknown flag " + arg);
    }
  }
  if (!have_seed) return Usage("--seed is required");
  ctx.report = Report(ctx.traced);
  semdrift::SetGlobalThreadCount(ctx.threads);
  semdrift::GlobalTrace().Enable(false);
  // A wedged socket or worker must not outlive the run's time limit: the
  // default SIGALRM action ends the process without a result line.
  alarm(170);

  int rc = 0;
  if (ctx.workload == "batch-run") {
    rc = RunBatchWorkload(&ctx);
  } else if (ctx.workload == "stream-live") {
    rc = RunStreamWorkload(&ctx);
  } else if (ctx.workload == "serve-zipf") {
    rc = RunServeWorkload(&ctx, /*zipf=*/true);
  } else if (ctx.workload == "serve-uniform") {
    rc = RunServeWorkload(&ctx, /*zipf=*/false);
  } else {
    return Usage("unknown --workload '" + ctx.workload + "'");
  }
  for (const std::string& missing : ctx.report.Missing()) {
    ctx.Check(false, "metric " + missing + " was not measured");
  }
  if (ctx.attempted == 0) ctx.Check(false, "nothing was attempted");

  std::printf("%s\n", EnvLine(ctx, commit).c_str());
  for (const std::string& failure : ctx.check_failures) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = rc == 0 && ctx.check_failures.empty();
  std::printf("%s\n", ctx.report.ResultLine(correct, ctx.attempted, ctx.failed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
