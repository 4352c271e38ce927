#!/usr/bin/env python3
"""Pinned performance trajectory gate (DESIGN.md 17).

Compares the machine-readable benchmark outputs at the repo root
(BENCH_*.json, produced by the pinned invocations in scripts/check.sh --perf)
against the baselines committed under bench/baselines/. Every tracked metric
is direction-aware: for lower-is-better metrics the regression factor is
current/baseline, for higher-is-better it is baseline/current, so a factor
above 1.0 is always "worse than the pin".

Thresholds are deliberately loose because these are wall-clock numbers from
whatever machine runs the gate:

  factor <= 1.25   OK (within noise)
  factor <= 2.00   WARN (printed, does not fail the gate)
  factor >  2.00   FAIL (exit 1) -- an order-of-magnitude-ish regression,
                   e.g. an accidental allocation or O(n) scan on the hot path,
                   which is exactly what this gate exists to catch

Usage:
  scripts/perf_trajectory.py          compare current vs bench/baselines/
  scripts/perf_trajectory.py --pin    copy current BENCH_*.json into
                                      bench/baselines/ (re-pinning the
                                      trajectory; commit the result)
"""

import json
import os
import shutil
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_DIR = os.path.join(REPO, "bench", "baselines")

WARN_FACTOR = 1.25
FAIL_FACTOR = 2.00

# Lower-is-better metrics where both sides sit under this are sub-noise: a
# fully dead-code-eliminated loop or a single predicted branch. Ratios of
# numbers that small are meaningless, so they always pass (counter_inc_ns
# measures ~1e-5 ns; a "3x regression" there is measurement dust).
SUB_NOISE_NS = 2.0

# file -> {metric: direction}; metrics are top-level scalar fields.
TRACKED = {
    "BENCH_fig14.json": {
        "on_get_sampled_ns": "lower",
        "on_get_per_event_ns": "lower",
        "wait_pair_per_event_ns": "lower",
        "on_request_end_ns": "lower",
        "tick_100_tasks_us": "lower",
        "tick_100_waiting_us": "lower",
        # getResource into an installed ConcurrentFrontend: the C API's
        # producer path (current task, thread binding, clock read, ring push).
        "capi_get_frontend_ns": "lower",
    },
    "BENCH_mt_ingest.json": {
        "lossfree_ns_per_event_1p": "lower",
        "speedup_at_8": "higher",
    },
    "BENCH_obs_overhead.json": {
        "counter_inc_ns": "lower",
        "recorder_record_ns": "lower",
        "recorder_disabled_ns": "lower",
    },
    # atropos_lint over the whole tree (scripts/check.sh --perf pins the same
    # --dir set as the lint stage). Guards the analyzer itself: the cross-file
    # call graph and the lockset walk must stay cheap enough to gate on.
    "BENCH_lint.json": {
        "wall_ms": "lower",
    },
}


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return None
    except json.JSONDecodeError as e:
        print(f"perf_trajectory: {path}: malformed JSON ({e})", file=sys.stderr)
        sys.exit(2)


def pin():
    os.makedirs(BASELINE_DIR, exist_ok=True)
    pinned = 0
    for name in TRACKED:
        src = os.path.join(REPO, name)
        if not os.path.exists(src):
            print(f"  skip {name}: not present at repo root (run the bench first)")
            continue
        shutil.copyfile(src, os.path.join(BASELINE_DIR, name))
        print(f"  pinned {name} -> bench/baselines/{name}")
        pinned += 1
    if pinned == 0:
        print("perf_trajectory: nothing to pin", file=sys.stderr)
        return 1
    print(f"perf_trajectory: pinned {pinned} baseline(s); commit bench/baselines/")
    return 0


def compare():
    rows = []
    failures = 0
    warnings = 0
    missing_baseline = 0
    for name, metrics in TRACKED.items():
        current = load(os.path.join(REPO, name))
        baseline = load(os.path.join(BASELINE_DIR, name))
        if current is None:
            print(f"perf_trajectory: {name} missing at repo root; "
                  f"run scripts/check.sh --perf to generate it", file=sys.stderr)
            return 2
        if baseline is None:
            print(f"  {name}: no pinned baseline (bench/baselines/{name}); "
                  f"run with --pin to establish one")
            missing_baseline += 1
            continue
        for metric, direction in metrics.items():
            cur = current.get(metric)
            base = baseline.get(metric)
            if not isinstance(cur, (int, float)) or not isinstance(base, (int, float)):
                print(f"perf_trajectory: {name}:{metric} missing or non-numeric "
                      f"(current={cur!r}, baseline={base!r})", file=sys.stderr)
                return 2
            if metric.endswith("_ns") and max(cur, base) < SUB_NOISE_NS:
                rows.append((name, metric, direction, base, cur, 1.0, "sub-noise"))
                continue
            if base <= 0 or cur <= 0:
                # Degenerate pin (e.g. a zeroed field): report, never divide.
                print(f"perf_trajectory: {name}:{metric} non-positive "
                      f"(current={cur}, baseline={base})", file=sys.stderr)
                return 2
            factor = cur / base if direction == "lower" else base / cur
            if factor > FAIL_FACTOR:
                verdict = "FAIL"
                failures += 1
            elif factor > WARN_FACTOR:
                verdict = "WARN"
                warnings += 1
            elif factor < 1 / WARN_FACTOR:
                verdict = "BETTER"
            else:
                verdict = "ok"
            rows.append((name, metric, direction, base, cur, factor, verdict))

    if rows:
        width = max(len(f"{n}:{m}") for n, m, *_ in rows)
        print(f"  {'metric'.ljust(width)}  {'dir':6} {'baseline':>12} "
              f"{'current':>12} {'factor':>7}  verdict")
        for name, metric, direction, base, cur, factor, verdict in rows:
            print(f"  {(name + ':' + metric).ljust(width)}  {direction:6} "
                  f"{base:12.3f} {cur:12.3f} {factor:7.3f}  {verdict}")

    if failures:
        print(f"perf_trajectory: {failures} metric(s) regressed more than "
              f"{FAIL_FACTOR:.0f}x vs the pinned baseline", file=sys.stderr)
        return 1
    if warnings:
        print(f"perf_trajectory: {warnings} metric(s) in the warn band "
              f"(> {WARN_FACTOR}x, <= {FAIL_FACTOR:.0f}x); not failing the gate")
    if missing_baseline and not rows:
        # Nothing compared at all: fresh checkout without pins is not a pass.
        print("perf_trajectory: no baselines pinned; run with --pin first",
              file=sys.stderr)
        return 1
    print("perf_trajectory: trajectory holds")
    return 0


def main(argv):
    if len(argv) > 1 and argv[1] == "--pin":
        return pin()
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    return compare()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
