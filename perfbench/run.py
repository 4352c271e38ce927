#!/usr/bin/env python3
"""End-to-end benchmark of the Atropos reproduction.

Run from the repository root.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      Builds perfbench/ (and the src/ libraries it links) into .bench_build,
      runs one workload once and prints its checks and figures. The last line
      is one JSON object: {"correct", "attempted", "failed", "metrics"}.
      --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
      (and writes spans under .bench_out/). Exits non-zero when an output
      check fails or the printed metrics do not match BENCHMARK.json.

  python3 perfbench/run.py --steady [--runs 20] [--seconds s] [--first-seed n]
                           [--with-trace]
      Steadiness report: runs every workload repeatedly, one seed per round,
      alternating their order between rounds. For every end-to-end metric it
      prints the median, quartiles and relative spread (IQR / median) over
      all rounds, and the medians of the first and the second half of the
      rounds, which stand for two sets of runs made one after the other.
      A metric passes when both its spread and the change between the two
      halves' medians are within its bound; the mode exits 1 otherwise.
      --with-trace adds a traced run per round and prints the tracing
      overhead (traced minus untraced medians).

  python3 perfbench/run.py --selftest
      Short smoke run of every workload, traced and untraced: every output
      check must pass and the metric names and units printed must match
      BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures once, then builds incrementally. Build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo):
    """Runs one workload; returns (exit code, result dict or None, traced e2e dict or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        if echo and e.stdout:
            sys.stdout.write(e.stdout if isinstance(e.stdout, str) else e.stdout.decode())
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None, None
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines:
            print(line, flush=True)
    result = traced = None
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        pass
    for line in lines:
        if line.startswith("traced_end_to_end "):
            traced = json.loads(line[len("traced_end_to_end "):])
    return proc.returncode, result, traced


def check_result(spec, result, trace):
    """Problems with the shape of a result line, compared with BENCHMARK.json."""
    if not isinstance(result, dict):
        return ["no JSON result line"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name, unit in want.items():
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name].get("unit") != unit:
            problems.append(f"metric {name} unit {got[name].get('unit')} != {unit}")
    for name in got:
        if name not in want:
            problems.append(f"metric {name} not in BENCHMARK.json")
    return problems


def run_mode(args, spec):
    binary = build()
    if binary is None:
        return 2
    code, result, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace, True)
    problems = check_result(spec, result, args.trace)
    for p in problems:
        log("perfbench: " + p)
    if result is None:
        return code or 1
    if code == 0 and (problems or not result["correct"]):
        return 1
    return code


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady_mode(args, spec):
    binary = build()
    if binary is None:
        return 2
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in workloads}
    traced = {w: {m: [] for m in bounds} for w in workloads}
    failures = 0
    for r in range(args.runs):
        seed = args.first_seed + r
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            for trace in ([False, True] if args.with_trace else [False]):
                code, result, t = run_once(binary, w, seed, seconds, trace, False)
                ok = code == 0 and result is not None and result["correct"]
                failures += 0 if ok else 1
                if not ok:
                    log(f"  {w} seed {seed} trace {int(trace)}: FAILED (exit {code})")
                    continue
                src = t if trace else result["metrics"]
                for m in bounds:
                    if m in (src or {}):
                        (traced if trace else values)[w][m].append(src[m]["value"])
                if not trace:
                    brief = ", ".join(f"{m}={result['metrics'][m]['value']:.6g}" for m in bounds)
                    log(f"  round {r + 1} {w} seed {seed}: {brief}")
    half = args.runs // 2
    print(f"steadiness over {args.runs} seeds from {args.first_seed}, {seconds} s per run; "
          f"halves: rounds 1-{half} and {half + 1}-{args.runs}")
    print(f"{'workload':8} {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} "
          f"{'half 1':>12} {'half 2':>12} {'change':>7} {'bound':>6}  verdict")
    noisy = 0
    for w in workloads:
        for m, meta in bounds.items():
            vals = values[w][m]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            first, second = vals[:half], vals[half:]
            m1 = statistics.median(first) if first else med
            m2 = statistics.median(second) if second else med
            change = (m2 - m1) / m1 if m1 else float("inf")
            bound = meta["bound"]
            worst = max(spread, abs(change))
            if worst <= bound / 3:
                verdict = "steady"
            elif worst <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                noisy += 1
            print(f"{w:8} {m:14} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
                  f"{m1:12.6g} {m2:12.6g} {change:+7.3f} {bound:6.2f}  {verdict}")
    if args.with_trace:
        print("tracing overhead (traced median - untraced median, and as a share of untraced)")
        for w in workloads:
            for m in bounds:
                if values[w][m] and traced[w][m]:
                    u = statistics.median(values[w][m])
                    t = statistics.median(traced[w][m])
                    print(f"{w:8} {m:14} {t - u:+12.6g}  {(t - u) / u if u else 0:+8.3f}")
    return 1 if failures or noisy else 0


def selftest_mode(spec):
    binary = build()
    if binary is None:
        return 2
    bad = 0
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (False, True):
            code, result, traced = run_once(binary, w, 1, 3, trace, False)
            problems = check_result(spec, result, trace)
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"exit {code}, output checks failed")
            if trace:
                want = {m["name"] for m in spec["end_to_end"]}
                if traced is None or set(traced) != want:
                    problems.append("traced run did not print its end-to-end figures")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"selftest {w:7} trace={int(trace)}: {status}")
            bad += 1 if problems else 0
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--with-trace", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if not os.path.isdir("src") or not os.path.isfile("BENCHMARK.json"):
        log("perfbench: run from the repository root (needs src/ and BENCHMARK.json)")
        return 2
    spec = load_spec()
    if args.selftest:
        return selftest_mode(spec)
    if args.steady:
        return steady_mode(args, spec)
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return run_mode(args, spec)


if __name__ == "__main__":
    sys.exit(main())
