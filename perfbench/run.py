#!/usr/bin/env python3
"""Build the TEA benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig5_warm --seed 1 \
        --seconds 25 --trace 0

Builds perfbench/ (and the TEA libraries from src/) into the directory
named by $CARGO_TARGET_DIR, default .bench_build, then runs the
benchmark binary. Build output and the human report go to stderr; the
last line of stdout is the JSON result record. Exits non-zero without a
result when the build or the run fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig5_warm", "sweep_uncached")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_timeout(seconds):
    """Seconds the benchmark binary may take: set-up, then --seconds of
    timed passes, with room for a slow period."""
    return 3 * seconds + 120


def build(build_dir):
    """Configure (once) and build the benchmark; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def source_revision():
    """Commit of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, env=env)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    # On SIGTERM, unwind: subprocess.run kills the benchmark binary and
    # the finally clause below removes the scratch directory.
    signal.signal(signal.SIGTERM,
                  lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    # The benchmark measures the defaults users get: no TEA_* knob from
    # the caller's environment may change what runs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TEA_")}
    work = os.path.join(ROOT, ".bench_tmp", "run-%d" % os.getpid())
    spans = os.path.join(ROOT, ".bench_out", "spans-%s.jsonl" % args.workload)
    os.makedirs(work, exist_ok=True)
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--digests", os.path.join(HERE, "digests.txt"),
           "--work-dir", work, "--spans-out", spans,
           "--commit", source_revision()]
    timeout = run_timeout(args.seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              cwd=ROOT, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %g s" % timeout, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("perfbench: benchmark exited %d" % proc.returncode,
              file=sys.stderr)
        return 1
    if set(json.loads(lines[-1])) != RESULT_KEYS:
        print("perfbench: malformed result %r" % lines[-1], file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
