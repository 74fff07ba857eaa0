#!/usr/bin/env bash
# One-command quality gates. Run from the repo root:
#
#   tools/check.sh [jobs]             sanitizer gate (ASan+UBSan suite, then
#                                     the concurrency tests under TSan)
#   tools/check.sh --coverage [jobs]  gcov line-coverage gate: full suite in
#                                     an instrumented tree, per-directory
#                                     coverage table, hard floor of 80% on
#                                     src/obs and src/serve
#   tools/check.sh --soak [jobs]      serving soak under ASan: bench_serve's
#                                     swap-under-load phase with injected
#                                     publish faults, gating zero dropped
#                                     queries and a bounded p99
#   tools/check.sh --scenarios [jobs] adversarial replay gate: every checked-in
#                                     scenarios/*.toml replayed under
#                                     ASan+UBSan against its recorded envelope
#   tools/check.sh --net [jobs]       network soak under ASan: bench_serve's
#                                     multi-process socket phase (8 client
#                                     processes against one server)
#                                     plus the 8-client server test, gating
#                                     zero non-OK responses over the wire
#   tools/check.sh --stream [jobs]    streaming gate: the incremental-vs-batch
#                                     differential under ASan (final KB and
#                                     snapshot byte-identical across epoch
#                                     schedules and thread counts), then the
#                                     live publish/swap soak (cli_stream_soak)
#                                     with TSan-instrumented binaries
#
# Build trees live in build-asan/, build-tsan/ and build-cov/ and are reused
# across runs (incremental). Exits non-zero on the first failing configure,
# build or test — or a broken coverage floor.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=sanitize
if [[ "${1:-}" == "--coverage" ]]; then
  MODE=coverage
  shift
elif [[ "${1:-}" == "--soak" ]]; then
  MODE=soak
  shift
elif [[ "${1:-}" == "--scenarios" ]]; then
  MODE=scenarios
  shift
elif [[ "${1:-}" == "--net" ]]; then
  MODE=net
  shift
elif [[ "${1:-}" == "--stream" ]]; then
  MODE=stream
  shift
fi
JOBS="${1:-$(nproc 2>/dev/null || echo 2)}"

if [[ "$MODE" == "coverage" ]]; then
  echo "== Coverage: instrumented build + full ctest =="
  cmake -B build-cov -S . -DSEMDRIFT_COVERAGE=ON -DCMAKE_BUILD_TYPE=Debug
  cmake --build build-cov -j "$JOBS"
  # Stale counts from a previous run would inflate coverage.
  find build-cov -name '*.gcda' -delete
  ctest --test-dir build-cov --output-on-failure -j "$JOBS"

  echo "== Coverage: per-directory line coverage (gcov) =="
  # gcov -n prints, per contributing source file, "Lines executed:P% of N".
  # A header shows up once per including TU; keep the best-covered sighting
  # of each file (gcov merges runs per TU, not across TUs) before
  # aggregating per top-level source directory.
  find build-cov -name '*.gcda' -print0 |
    xargs -0 -n 64 gcov -n 2>/dev/null |
    awk -v root="$PWD/" '
      /^File / {
        # "File <quote>/abs/path.cc<quote>" -> /abs/path.cc
        f = substr($0, 7, length($0) - 7)
        next
      }
      /^Lines executed:/ {
        line = $0
        sub(/^Lines executed:/, "", line)
        split(line, parts, "% of ")
        total = parts[2] + 0
        covered = int(parts[1] * total / 100 + 0.5)
        # Normalize to a repo-relative path; skip system/external files.
        path = f
        sub(root, "", path)
        if (path !~ /^(src|tools|tests|bench)\//) next
        if (!(path in file_total) || covered > file_covered[path]) {
          file_covered[path] = covered
          file_total[path] = total
        }
        next
      }
      END {
        status = 0
        for (path in file_total) {
          n = split(path, seg, "/")
          dir = (seg[1] == "src" && n > 2) ? seg[1] "/" seg[2] : seg[1]
          dir_covered[dir] += file_covered[path]
          dir_total[dir] += file_total[path]
        }
        printf "%-18s %10s %10s %8s\n", "directory", "covered", "lines", "pct"
        # Insertion sort (mawk has no asorti).
        m = 0
        for (dir in dir_total) dirs[++m] = dir
        for (i = 2; i <= m; i++) {
          for (j = i; j > 1 && dirs[j] < dirs[j - 1]; j--) {
            tmp = dirs[j]; dirs[j] = dirs[j - 1]; dirs[j - 1] = tmp
          }
        }
        for (i = 1; i <= m; i++) {
          dir = dirs[i]
          pct = dir_total[dir] > 0 ? 100.0 * dir_covered[dir] / dir_total[dir] : 0
          printf "%-18s %10d %10d %7.1f%%\n", dir, dir_covered[dir], dir_total[dir], pct
          if ((dir == "src/obs" || dir == "src/serve") && pct < 80.0) {
            printf "FAIL: %s line coverage %.1f%% is below the 80%% floor\n", dir, pct
            status = 1
          }
        }
        exit status
      }'
  echo "OK: coverage floors hold (src/obs and src/serve >= 80%)"
  exit 0
fi

if [[ "$MODE" == "soak" ]]; then
  echo "== Soak: bench_serve swap-under-load with publish faults (ASan) =="
  cmake -B build-asan -S . -DSEMDRIFT_SANITIZE="address;undefined" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$JOBS" --target bench_serve
  # 120 swaps under continuous query load, every fifth publish torn. The
  # bench exits non-zero on any failed (non-shed) response, any uncontained
  # corrupt publish, or a swap-phase p99 above the bound (generous: ASan
  # plus fault injection is not a latency environment, but an unbounded p99
  # would hide a swap stall).
  build-asan/bench/bench_serve --scale 0.1 --swaps 120 --publish-faults \
    --max-p99-ms 250 --out build-asan/BENCH_serve_soak.json
  echo "OK: soak held — zero dropped queries across 120 faulted hot swaps"
  exit 0
fi

if [[ "$MODE" == "net" ]]; then
  echo "== Net: multi-process socket serving under ASan =="
  cmake -B build-asan -S . -DSEMDRIFT_SANITIZE="address;undefined" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$JOBS" --target bench_serve net_server_test
  # The epoll front-end, router and reorder buffer under concurrent client
  # processes: any memory error, any non-OK response over the wire, or an
  # mmap cold open slower than the eager read path fails the gate. Swaps are
  # trimmed — the soak mode owns hot-swap torture; this mode owns sockets.
  build-asan/bench/bench_serve --scale 0.1 --swaps 10 --net-seconds 3 \
    --out build-asan/BENCH_serve_net.json
  # The in-process suite covers the corners a clean bench run cannot reach:
  # abrupt disconnects, oversized lines, backpressure, shed, hot swap mid-load.
  build-asan/tests/net_server_test
  echo "OK: socket serving held under ASan"
  exit 0
fi

if [[ "$MODE" == "stream" ]]; then
  echo "== Stream: incremental-vs-batch differential (ASan+UBSan) =="
  cmake -B build-asan -S . -DSEMDRIFT_SANITIZE="address;undefined" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$JOBS" --target stream_differential_test
  # 20 seeded worlds x 3 epoch schedules at 1 thread plus 6 x 3 at 8
  # threads: the streamed KB and snapshot must end byte-identical to a
  # one-shot batch run.
  build-asan/tests/stream_differential_test

  echo "== Stream: live publish/swap soak (TSan) =="
  cmake -B build-tsan -S . -DSEMDRIFT_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$JOBS" --target semdrift_cli
  # Real binaries: `semdrift stream` publishing generations into a live
  # `serve --listen --publish-dir` while 4 client processes query across the
  # swaps. TSan watches the swap path; the test diffs every answer against
  # per-epoch one-shot answers and the final image against a batch run.
  ctest --test-dir build-tsan -R cli_stream_soak --output-on-failure
  echo "OK: streaming differential and live hot-swap soak both held"
  exit 0
fi

if [[ "$MODE" == "scenarios" ]]; then
  echo "== Scenarios: adversarial replay corpus under ASan+UBSan =="
  cmake -B build-asan -S . -DSEMDRIFT_SANITIZE="address;undefined" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-asan -j "$JOBS" --target semdrift_cli
  # Every checked-in scenario must load, replay deterministically, and land
  # inside its recorded precision/cost envelope — any memory error in the
  # adversarial corner it exercises fails the gate too.
  build-asan/tools/semdrift scenario-run scenarios/*.toml --verbose
  echo "OK: all checked-in scenarios replayed inside their envelopes"
  exit 0
fi

echo "== ASan+UBSan: configure + build + full ctest =="
cmake -B build-asan -S . -DSEMDRIFT_SANITIZE="address;undefined" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== TSan: concurrency tests =="
TSAN_TARGETS=(thread_pool_test parallel_determinism_test supervisor_test
  serve_batcher_test serve_hotswap_test obs_test ml_forest_test
  forest_differential_test net_protocol_test net_router_test net_server_test
  stream_differential_test dp_detector_test ml_multitask_test ml_kpca_test)
cmake -B build-tsan -S . -DSEMDRIFT_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j "$JOBS" --target "${TSAN_TARGETS[@]}"
for t in "${TSAN_TARGETS[@]}"; do
  echo "-- TSan: $t"
  "build-tsan/tests/$t"
done

echo "OK: ASan+UBSan suite and TSan concurrency tests all green"
