#!/usr/bin/env bash
# Repo gate: full build + ctest (including the fuzz_smoke and corpus_replay
# corpora), the corpus_smoke stage (mine 5 scenarios from a fixed seed,
# replay them, diagnoser agreement oracle), then the static-analysis stage
# (atropos_lint always; clang-tidy and clang's thread-safety analysis when
# clang is installed), then the sim/apps/obs/workload/atropos/baselines/
# instrument/db tests, a fuzz corpus, and a corpus-replay slice under
# ASan/UBSan, then the concurrent intake
# tests, the live-mode tests (incl. live_smoke), the abortable-sync storms
# (sync_test — the CQS oracle gate), and the mt_ingest smoke under TSan.
#
#   scripts/check.sh          # build + tests + perf trajectory + lint +
#                             # ASan/UBSan + TSan
#   scripts/check.sh --fast   # skip the perf, lint and sanitizer stages
#   scripts/check.sh --lint   # configure + run only the static-analysis stage
#   scripts/check.sh --perf   # configure + run only the perf-trajectory stage
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || echo 4)

# Static analysis, three sub-stages:
#   1. atropos_lint (tools/atropos_lint): the domain checks — capi-pairing,
#      cancel-action-safety, alloc-free, determinism, lock-order, guarded-by,
#      atomics-protocol, stale-suppression — resolved over the whole-program
#      call graph. Always runs; the tool is built from this repo so there is
#      nothing to install. The stderr summary includes the wall time; the
#      perf stage tracks it via BENCH_lint.json.
#   2. clang-tidy over the decision-pipeline layers, driven by the compile
#      database the main configure exports. Skipped when not installed.
#   3. clang thread-safety analysis: a clang compile of the concurrent intake
#      with -Werror=thread-safety, validating the
#      src/common/thread_annotations.h contracts. Skipped without clang.
run_lint() {
  echo "== lint: atropos_lint (src, examples, tests, tools) =="
  cmake --build build -j "$JOBS" --target atropos_lint >/dev/null
  ./build/tools/atropos_lint/atropos_lint --dir=src --dir=examples --dir=tests --dir=tools

  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== lint: clang-tidy over src/atropos + src/testing =="
    local files
    files=$(ls src/atropos/*.cc src/testing/*.cc)
    clang-tidy -p build --quiet $files
  else
    echo "== lint: clang-tidy not found, skipping =="
  fi

  if command -v clang++ >/dev/null 2>&1; then
    echo "== lint: clang thread-safety analysis (concurrent intake) =="
    clang++ -std=c++20 -I. -Wthread-safety -Werror=thread-safety \
      -fsyntax-only src/atropos/concurrent_frontend.cc
  else
    echo "== lint: clang++ not found, skipping thread-safety analysis =="
  fi
}

# Perf trajectory (DESIGN.md §17): regenerate the machine-readable benchmark
# outputs with pinned invocations, then compare every tracked metric against
# the baselines committed under bench/baselines/. Warns on >1.25x noise-band
# drift; fails only on a >2x regression — the accidental-allocation /
# O(n)-scan-on-the-hot-path class this gate exists to catch.
run_perf() {
  echo "== perf trajectory: regenerate BENCH_*.json (pinned invocations) =="
  cmake --build build -j "$JOBS" --target fig14_overhead mt_ingest obs_overhead \
    atropos_lint >/dev/null
  # Single-thread micro benches first; mt_ingest's saturation runs oversubscribe
  # the box and would inflate a micro loop that runs right after them.
  ./build/bench/fig14_overhead --json --skip-sim
  ./build/bench/obs_overhead --json
  ./build/bench/mt_ingest --events=2000000 --max-threads=8 --json
  # The analyzer's own wall time is a tracked metric: the whole-program call
  # graph must stay cheap enough to run on every gate.
  ./build/tools/atropos_lint/atropos_lint --dir=src --dir=examples --dir=tests \
    --dir=tools --json > BENCH_lint.json

  echo "== perf trajectory: compare against bench/baselines/ =="
  python3 scripts/perf_trajectory.py
}

echo "== configure + build (build/) =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"

if [[ "${1:-}" == "--lint" ]]; then
  run_lint
  exit 0
fi
if [[ "${1:-}" == "--perf" ]]; then
  run_perf
  exit 0
fi

echo "== ctest (build/) =="
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== fuzz smoke (deterministic corpus, replay-checked) =="
./build/tools/fuzz_atropos --seed=1 --runs=25 --replay-check

echo "== corpus smoke (mine 5 scenarios from a fixed seed, replay, diagnoser oracle) =="
rm -rf build/corpus-smoke
./build/tools/atropos_mine mine --corpus=build/corpus-smoke --seed-start=1 \
  --max-seeds=40 --target=5 --shrink-budget=20 --quiet
./build/tools/atropos_mine replay --corpus=build/corpus-smoke --require-agreement=0.95

if [[ "${1:-}" == "--fast" ]]; then
  echo "== skipping perf + lint + sanitizer stages (--fast) =="
  exit 0
fi

run_perf

run_lint

echo "== configure + build with ASan/UBSan (build-asan/) =="
cmake -B build-asan -S . -DATROPOS_SANITIZE=ON >/dev/null
cmake --build build-asan -j "$JOBS" --target sim_test apps_test obs_test workload_test \
  atropos_test sync_test baselines_test instrument_test db_test fuzz_atropos atropos_mine

echo "== sim + apps + obs + workload + atropos + sync + baselines + instrument + db tests under ASan/UBSan =="
./build-asan/tests/sim_test
./build-asan/tests/apps_test
./build-asan/tests/obs_test
./build-asan/tests/workload_test
./build-asan/tests/atropos_test
./build-asan/tests/sync_test
./build-asan/tests/baselines_test
./build-asan/tests/instrument_test
./build-asan/tests/db_test

echo "== fuzz corpus under ASan/UBSan =="
./build-asan/tools/fuzz_atropos --seed=1 --runs=10 --replay-check

echo "== corpus replay under ASan/UBSan (first 20 scenarios) =="
./build-asan/tools/atropos_mine replay --corpus=corpus --require-agreement=0.95 --limit=20

echo "== configure + build with TSan (build-tsan/) =="
cmake -B build-tsan -S . -DATROPOS_TSAN=ON >/dev/null
cmake --build build-tsan -j "$JOBS" --target concurrent_test live_test sync_test mt_ingest

echo "== concurrent intake + capi facade tests under TSan =="
./build-tsan/tests/concurrent_test

echo "== live-mode tests + live_smoke under TSan =="
./build-tsan/tests/live_test

echo "== abortable-sync units + CQS storms under TSan =="
./build-tsan/tests/sync_test

echo "== mt_ingest smoke under TSan =="
./build-tsan/bench/mt_ingest --events=20000 --max-threads=4

echo "== all checks passed =="
