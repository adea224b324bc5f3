#!/usr/bin/env python3
"""Self-test for pairs.py.

Builds two stub trees whose `.bench_build/perfbench` is a script that
logs its arguments and prints a canned result record for each seed,
then checks the run order, the arguments each run gets, the summary
table and the exit status on an incorrect or failing run.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PAIRS = os.path.join(HERE, "pairs.py")

STUB = """#!{python}
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open({log!r}, "a") as f:
    f.write(json.dumps({{
        "tree": {tag!r}, "seed": int(args["--seed"]),
        "workload": args["--workload"], "trace": args["--trace"],
        "digests": args["--digests"], "work": args["--work-dir"],
        "work_exists": os.path.isdir(args["--work-dir"]),
        "tea_env": any(k.startswith("TEA_") for k in os.environ)}}) + "\\n")
print("a human report line")
print(json.dumps({table!r}[args["--seed"]]))
"""

FAILURES = []


def check(cond, what):
    if not cond:
        FAILURES.append(what)


def record(wall, cpu, correct=True, failed=0, tea=4.44):
    metrics = {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": 30.0,
               "setup_s": 0.25, "tea_error_pct": tea,
               "analyzed_mcycles_per_s": 10.0 / wall}
    return {"correct": correct, "attempted": 24, "failed": failed,
            "metrics": {k: {"value": v, "unit": "x"}
                        for k, v in metrics.items()}}


def make_tree(root, tag, log, table):
    tree = os.path.join(root, tag)
    os.makedirs(os.path.join(tree, ".bench_build"))
    os.makedirs(os.path.join(tree, "perfbench"))
    with open(os.path.join(tree, "perfbench", "digests.txt"), "w") as f:
        f.write("# digests of %s\n" % tag)
    stub = os.path.join(tree, ".bench_build", "perfbench")
    with open(stub, "w") as f:
        f.write(STUB.format(python=sys.executable, log=log, tag=tag,
                            table={str(k): v for k, v in table.items()}))
    os.chmod(stub, 0o755)
    return tree


def run_pairs(a, b, pairs, seed0):
    env = dict(os.environ, TEA_THREADS="3")
    return subprocess.run(
        [sys.executable, PAIRS, a, b, "--workload", "sweep_uncached",
         "--pairs", str(pairs), "--seconds", "1", "--seed0", str(seed0)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)


def row(out, name):
    """(A median, A IQR, B median, B better, pairs, max rel diff)."""
    m = re.search(r"^%s\s+(\S+)\s+(\S+)\s+(\S+)\s+(\d+)/(\d+)\s+(\S+)$"
                  % name, out, re.M)
    return None if m is None else (float(m.group(1)), float(m.group(2)),
                                   float(m.group(3)), int(m.group(4)),
                                   int(m.group(5)), float(m.group(6)))


def test_summary_and_order(root):
    log = os.path.join(root, "log.jsonl")
    # wall_s: A 1.0, 1.1, 1.2, 1.3; B 0.8, 0.9, 1.3, 1.0 (better in 3).
    a_walls = [1.0, 1.1, 1.2, 1.3]
    b_walls = [0.8, 0.9, 1.3, 1.0]
    # tea_error_pct: B moves in the last bits of one pair only.
    a_tea = 1.0819201597910135
    b_teas = [a_tea, a_tea, 1.0819201597909978, a_tea]
    a = make_tree(root, "A", log, {
        700 + i: record(w, 4 * w, tea=a_tea)
        for i, w in enumerate(a_walls)})
    b = make_tree(root, "B", log, {
        700 + i: record(w, 4 * w, tea=t)
        for i, (w, t) in enumerate(zip(b_walls, b_teas))})
    proc = run_pairs(a, b, 4, 700)
    check(proc.returncode == 0, "clean pairs exit %d: %s" %
          (proc.returncode, proc.stderr))

    with open(log) as f:
        runs = [json.loads(line) for line in f]
    check([(r["tree"], r["seed"]) for r in runs] ==
          [("A", 700), ("B", 700), ("B", 701), ("A", 701),
           ("A", 702), ("B", 702), ("B", 703), ("A", 703)],
          "run order %r" % [(r["tree"], r["seed"]) for r in runs])
    for r in runs:
        tree = a if r["tree"] == "A" else b
        check(r["digests"] == os.path.join(tree, "perfbench",
                                           "digests.txt"),
              "digests %s" % r["digests"])
        check(r["work_exists"], "work dir missing at run time")
        check(not os.path.exists(r["work"]), "work dir left behind")
        check(r["trace"] == "0" and r["workload"] == "sweep_uncached",
              "arguments %r" % r)
        check(not r["tea_env"], "TEA_* variable reached perfbench")
    check(len({r["work"] for r in runs}) == len(runs),
          "work dirs are not fresh per run")

    wall = row(proc.stdout, "wall_s")
    check(wall is not None, "no wall_s row in:\n" + proc.stdout)
    if wall:
        # A: median 1.15, IQR 1.225 - 1.075 = 0.15; B: median 0.95.
        check(abs(wall[0] - 1.15) < 1e-9, "A median %r" % wall[0])
        check(abs(wall[1] - 0.15) < 1e-9, "A IQR %r" % wall[1])
        check(abs(wall[2] - 0.95) < 1e-9, "B median %r" % wall[2])
        check(wall[3:5] == (3, 4), "wall_s better %r" % (wall[3:5],))
        # Largest |B - A| / |A|: pair 4, 0.3 / 1.3 = 0.231.
        check(abs(wall[5] - 0.231) < 1e-9, "wall_s max rel %r" %
              wall[5])
    rate = row(proc.stdout, "analyzed_mcycles_per_s")
    check(rate is not None and rate[3:5] == (3, 4),
          "higher-is-better count %r" % (rate,))
    rss = row(proc.stdout, "peak_rss_mb")
    check(rss is not None and rss[3:5] == (0, 4),
          "ties count as not better %r" % (rss,))
    check(rss is not None and rss[5] == 0.0,
          "equal runs differ by %r" % (rss,))
    tea = row(proc.stdout, "tea_error_pct")
    check(tea is not None and tea[0] == tea[2],
          "last-bit medians print alike %r" % (tea,))
    # Three significant digits: about 1.45e-14.
    want = (a_tea - b_teas[2]) / a_tea
    check(tea is not None and abs(tea[5] - want) < 1e-2 * want,
          "last-bit max rel %r, want %.3g" % (tea, want))


def test_incorrect_or_failed_run_exits_1(root):
    for bad in (record(1.0, 4.0, correct=False),
                record(1.0, 4.0, failed=1)):
        sub = tempfile.mkdtemp(dir=root)
        log = os.path.join(sub, "log.jsonl")
        a = make_tree(sub, "A", log, {5: record(1.0, 4.0),
                                      6: record(1.0, 4.0)})
        b = make_tree(sub, "B", log, {5: record(0.9, 3.6), 6: bad})
        proc = run_pairs(a, b, 2, 5)
        check(proc.returncode == 1,
              "bad run %r exit %d" % (bad["failed"], proc.returncode))


def main():
    with tempfile.TemporaryDirectory() as root:
        test_summary_and_order(os.path.join(root, "clean"))
        test_incorrect_or_failed_run_exits_1(
            tempfile.mkdtemp(dir=root))
    for f in FAILURES:
        print("test_pairs: FAIL: " + f, file=sys.stderr)
    if FAILURES:
        return 1
    print("test_pairs: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
