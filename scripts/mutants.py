#!/usr/bin/env python3
"""Runs the mutation catalog (tests/mutants/catalog.txt): every patch there
must be killed by the check it names.

The tree is copied into build-mutants/ (which the .gitignore covers) so the
checkout is never patched. The copy is synced by content, so its two build
trees, one under ThreadSanitizer for `tsan:` killers and one plain for
`test:` and `lint:` killers, are rebuilt incrementally across entries and
across runs. Each entry is applied with `git apply`, its killer is built and
run, and the patch is reverted. Before any mutant, each
killer runs once on the unpatched copy and must pass: a killer that already
fails would "kill" every mutant.

The stage fails when a mutant survives, when a patch no longer applies (a
refactor must carry its mutants along), when a mutant does not build, or when
a killer fails on the unpatched tree. A timeout counts as a kill: a mutant
that deadlocks a test is caught.

  python3 scripts/mutants.py
"""

import filecmp
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
CATALOG = os.path.join(ROOT, "tests", "mutants", "catalog.txt")
WORKDIR = os.path.join(ROOT, "build-mutants")
JOBS = os.cpu_count() or 4
LINT_DIRS = ["src", "examples", "tests", "tools"]
# A mutant run may take this many times the unpatched run before it counts
# as hung, and never less than the floor.
TIMEOUT_FACTOR = 5
TIMEOUT_FLOOR_S = 60
CONTROL_TIMEOUT_S = 1800


def log(msg):
    print(msg, flush=True)


def read_catalog():
    entries = []
    with open(CATALOG) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, killer, why = line.split(None, 2)
            kind, _, arg = killer.partition(":")
            if kind not in ("tsan", "test", "lint") or not arg:
                sys.exit(f"mutants: bad killer '{killer}' for {name}")
            entries.append({"name": name, "kind": kind, "arg": arg, "why": why})
    return entries


def tree_of(entry):
    return "tsan" if entry["kind"] == "tsan" else "plain"


def target_of(entry):
    """The build target a killer runs: the test binary, or the linter."""
    if entry["kind"] == "lint":
        return "atropos_lint"
    return entry["arg"].partition(":")[0]


def sync_tree(dst):
    """Makes dst hold the checkout's tracked and untracked-unignored files,
    rewriting only files whose bytes differ so make sees true changes."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True).stdout.decode().split("\0")
    wanted = set()
    for rel in listed:
        src = os.path.join(ROOT, rel)
        if not rel or not os.path.isfile(src):
            continue  # deleted in the working tree, not yet staged
        wanted.add(rel)
        out = os.path.join(dst, rel)
        if os.path.isfile(out) and filecmp.cmp(src, out, shallow=False):
            continue
        os.makedirs(os.path.dirname(out), exist_ok=True)
        shutil.copyfile(src, out)
    for dirpath, dirnames, filenames in os.walk(dst):
        dirnames[:] = [d for d in dirnames if d != ".git"]
        for fn in filenames:
            full = os.path.join(dirpath, fn)
            if os.path.relpath(full, dst) not in wanted:
                os.remove(full)
    # Its own repository, so `git apply` resolves patch paths against the
    # copy rather than the enclosing checkout.
    if not os.path.isdir(os.path.join(dst, ".git")):
        subprocess.run(["git", "init", "-q", dst], check=True)


def git_apply(src, patch, reverse=False, check=False):
    cmd = ["git", "apply"]
    if reverse:
        cmd.append("-R")
    if check:
        cmd.append("--check")
    return subprocess.run(cmd + [patch], cwd=src, capture_output=True, text=True)


def build(tree, targets):
    r = subprocess.run(["cmake", "--build", tree, "-j", str(JOBS), "--target"] + targets,
                       capture_output=True, text=True)
    return r.returncode == 0, r.stdout + r.stderr


def find_binary(tree, target):
    for sub in ("tests", "bench", "tools", os.path.join("tools", "atropos_lint")):
        path = os.path.join(tree, sub, target)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            return path
    sys.exit(f"mutants: no binary for target '{target}' under {tree}")


def killer_command(entry, tree):
    binary = find_binary(tree, target_of(entry))
    if entry["kind"] == "lint":
        return [binary, "--checks=" + entry["arg"]] + ["--dir=" + d for d in LINT_DIRS]
    gtest_filter = entry["arg"].partition(":")[2]
    return [binary] + (["--gtest_filter=" + gtest_filter] if gtest_filter else [])


def run_killer(cmd, src, timeout_s):
    """Returns (exit code, or None on a timeout; seconds; output tail)."""
    start = time.monotonic()
    try:
        r = subprocess.run(cmd, cwd=src, capture_output=True, text=True, timeout=timeout_s)
        code, out = r.returncode, r.stdout + r.stderr
    except subprocess.TimeoutExpired as e:
        code = None
        out = (e.stdout or b"").decode(errors="replace") if isinstance(e.stdout, bytes) \
            else (e.stdout or "")
    return code, time.monotonic() - start, out[-2000:]


def main():
    stage_start = time.monotonic()
    entries = read_catalog()
    src = os.path.join(WORKDIR, "src")
    trees = {name: os.path.join(WORKDIR, name) for name in ("tsan", "plain")}
    os.makedirs(src, exist_ok=True)
    log(f"== mutants: syncing the tree into {src} ==")
    sync_tree(src)
    for name, flags in (("tsan", ["-DATROPOS_TSAN=ON"]), ("plain", [])):
        targets = sorted({target_of(e) for e in entries if tree_of(e) == name})
        if not targets:
            continue
        subprocess.run(["cmake", "-B", trees[name], "-S", src] + flags, check=True,
                       stdout=subprocess.DEVNULL)
        log(f"== mutants: building {' '.join(targets)} ({name}) ==")
        ok, out = build(trees[name], targets)
        if not ok:
            log(out[-4000:])
            sys.exit(f"mutants: the unpatched {name} tree does not build")

    # Controls: every killer passes on the unpatched tree; its time sets the
    # timeout for the mutant runs.
    timeouts = {}
    failures = []
    for entry in entries:
        key = (entry["kind"], entry["arg"])
        if key in timeouts:
            continue
        tree = trees[tree_of(entry)]
        code, secs, out = run_killer(killer_command(entry, tree), src, CONTROL_TIMEOUT_S)
        timeouts[key] = max(TIMEOUT_FLOOR_S, TIMEOUT_FACTOR * secs)
        log(f"control  {entry['kind']}:{entry['arg']:<22} exit {code} in {secs:.1f}s")
        if code != 0:
            log(out)
            failures.append(f"control {entry['kind']}:{entry['arg']} fails unpatched")
    if failures:
        sys.exit("mutants: " + "; ".join(failures))

    for entry in entries:
        name = entry["name"]
        patch = os.path.join(ROOT, "tests", "mutants", name + ".patch")
        killer = f"{entry['kind']}:{entry['arg']}"
        applied = git_apply(src, patch, check=True)
        if applied.returncode != 0:
            log(f"ERROR    {name}: patch does not apply\n{applied.stderr}")
            failures.append(f"{name} does not apply")
            continue
        git_apply(src, patch)
        tree = trees[tree_of(entry)]
        try:
            if entry["kind"] != "lint":
                ok, out = build(tree, [target_of(entry)])
                if not ok:
                    log(f"ERROR    {name}: mutant does not build\n{out[-4000:]}")
                    failures.append(f"{name} does not build")
                    continue
            timeout_s = timeouts[(entry["kind"], entry["arg"])]
            code, secs, out = run_killer(killer_command(entry, tree), src, timeout_s)
        finally:
            reverted = git_apply(src, patch, reverse=True)
            if reverted.returncode != 0:
                sys.exit(f"mutants: cannot revert {name}: {reverted.stderr}")
        if code is None:
            log(f"killed   {name:<28} by {killer}: timeout after {secs:.0f}s")
        elif code != 0:
            log(f"killed   {name:<28} by {killer}: exit {code} in {secs:.1f}s")
        else:
            log(f"SURVIVED {name:<28} {killer} passed in {secs:.1f}s\n{out}")
            failures.append(f"{name} survived {killer}")

    wall = time.monotonic() - stage_start
    log(f"mutants: {len(entries) - len(failures)}/{len(entries)} killed, "
        f"wall {wall:.0f}s")
    if failures:
        sys.exit("mutants: " + "; ".join(failures))


if __name__ == "__main__":
    main()
