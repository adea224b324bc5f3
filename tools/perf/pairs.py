#!/usr/bin/env python3
"""Run a perfbench workload in alternating pairs on two prebuilt trees.

Usage:
    pairs.py TREE_A TREE_B --workload W --pairs N --seconds S --seed0 K

TREE_A is the baseline (usually the parent commit) and TREE_B the
change. Each tree must already hold its own built benchmark at
TREE/.bench_build/perfbench (`python3 perfbench/run.py ...` builds it
there); this script builds nothing and changes nothing under either
tree.

Pair i (1-based) runs both trees with seed K+i-1, `--trace 0`, the
tree's own perfbench/digests.txt and a fresh temporary work directory.
A runs first in odd pairs and B first in even ones, so a drift of the
host's speed during the session falls on both trees alike. TEA_*
variables are dropped from the environment, as perfbench/run.py does.

Prints one line per pair, then for each end-to-end metric that the
BENCHMARK.json of this script's repository names: A's median and
interquartile range, B's median, in how many pairs B was better in
that metric's `better` direction, and the largest relative difference
|B - A| / |A| of any pair, which shows a deterministic metric that
moves only in its last bits (the medians print alike). Exits 1 if any
run fails, is not `correct` or reports `failed > 0`.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def quantile(xs, q):
    """The q-quantile of xs by linear interpolation between ranks."""
    s = sorted(xs)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def run_once(tree, workload, seed, seconds):
    """Run TREE's perfbench once; return (result dict, error or None)."""
    binary = os.path.join(tree, ".bench_build", "perfbench")
    digests = os.path.join(tree, "perfbench", "digests.txt")
    env = {k: v for k, v in os.environ.items() if not k.startswith("TEA_")}
    work = tempfile.mkdtemp(prefix="pairs-")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0",
           "--digests", digests, "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              timeout=3 * seconds + 120)
    except (OSError, subprocess.TimeoutExpired) as e:
        return None, str(e)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, "exit %d: %s" % (proc.returncode,
                                      proc.stderr.strip()[-500:])
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, "malformed result %r" % lines[-1]
    if result.get("correct") is not True or result.get("failed", 1) != 0:
        return result, "correct=%s failed=%s" % (result.get("correct"),
                                                 result.get("failed"))
    return result, None


def rel_diff(a, b):
    """|b - a| / |a|: 0 when equal, inf when only a is 0."""
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a != 0 else float("inf")


def metric(result, name):
    m = result.get("metrics", {}).get(name)
    return None if m is None else float(m["value"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a")
    ap.add_argument("tree_b")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--seed0", required=True, type=int)
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds <= 0 or args.seed0 < 0:
        ap.error("--pairs must be >= 1, --seconds > 0 and --seed0 >= 0")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        end_to_end = json.load(f)["end_to_end"]
    names = [m["name"] for m in end_to_end]

    trees = {"A": args.tree_a, "B": args.tree_b}
    values = {"A": [], "B": []}
    bad = 0
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = "AB" if i % 2 == 0 else "BA"
        got = {}
        for side in order:
            result, err = run_once(trees[side], args.workload, seed,
                                   args.seconds)
            if err:
                bad += 1
                print("pair %d seed %d %s: %s" % (i + 1, seed, side, err),
                      file=sys.stderr)
            got[side] = result
        if got["A"] is None or got["B"] is None:
            continue
        for side in "AB":
            values[side].append({n: metric(got[side], n) for n in names})
        print("pair %d seed %d (%s first): %s" % (
            i + 1, seed, order[0], "  ".join(
                "%s %.4g -> %.4g" % (n, values["A"][-1][n],
                                     values["B"][-1][n])
                for n in names if values["A"][-1][n] is not None and
                values["B"][-1][n] is not None)), flush=True)

    pairs = len(values["A"])
    print("%d pairs of %s at --seconds %g" % (pairs, args.workload,
                                              args.seconds))
    print("%-24s %12s %12s %12s %8s %12s" % (
        "metric", "A median", "A IQR", "B median", "B better",
        "max rel diff"))
    for m in end_to_end:
        n = m["name"]
        rows = [(a[n], b[n]) for a, b in zip(values["A"], values["B"])
                if a[n] is not None and b[n] is not None]
        if not rows:
            continue
        a = [r[0] for r in rows]
        b = [r[1] for r in rows]
        lower = m["better"] == "lower"
        better = sum(1 for x, y in rows if (y < x if lower else y > x))
        print("%-24s %12.6g %12.6g %12.6g %5d/%-2d %12.3g" % (
            n, quantile(a, 0.5), quantile(a, 0.75) - quantile(a, 0.25),
            quantile(b, 0.5), better, len(rows),
            max(rel_diff(x, y) for x, y in rows)))
    if bad:
        print("pairs: %d run(s) failed or were not correct" % bad,
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
