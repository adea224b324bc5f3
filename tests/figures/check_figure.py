#!/usr/bin/env python3
"""Byte-for-byte pins of the paper benches' stdout.

Each paper bench (bench/*.cpp, except perf_simulator) prints one figure,
table or claim. Its expected stdout is checked in next to this script as
`<bench>.txt`; the `figures.<bench>` ctest (label `figures`) runs the
bench and fails on any byte of difference, printing a unified diff.

    check_figure.py BENCH_DIR NAME [NAME...]   compare against the pins
    check_figure.py --record BENCH_DIR [NAME...]
                                               rewrite the pins (all of
                                               them when no NAME is given)

Re-record only on purpose, and say in CHANGES.md why the results moved.

Every bench runs under the same environment: the caller's TEA_* knobs
are dropped, so a developer's cache directory or failpoint list cannot
leak into a pin. The trace cache is off unless --cache-dir names one;
the ctests share one cache per run (bench/CMakeLists.txt), so most
benches replay traces an earlier bench stored. Results are bit-identical
at any thread count and cache state, so neither choice changes what is
compared. When a pin fails only with --cache-dir, the cache path is at
fault, not the figure.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
from pathlib import Path

PIN_DIR = Path(__file__).resolve().parent


def bench_env(cache_dir: str | None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TEA_")}
    if cache_dir:
        env["TEA_TRACE_CACHE_DIR"] = cache_dir
    else:
        env["TEA_TRACE_CACHE"] = "0"
    return env


def run_bench(bench_dir: Path, name: str,
              cache_dir: str | None) -> bytes | None:
    exe = bench_dir.resolve() / name
    proc = subprocess.run([str(exe)], env=bench_env(cache_dir),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        print(f"{name}: exited {proc.returncode}", file=sys.stderr)
        return None
    return proc.stdout


def check(bench_dir: Path, name: str, cache_dir: str | None) -> bool:
    pin = PIN_DIR / f"{name}.txt"
    if not pin.is_file():
        print(f"{name}: no pin at {pin}; record one with --record",
              file=sys.stderr)
        return False
    got = run_bench(bench_dir, name, cache_dir)
    if got is None:
        return False
    want = pin.read_bytes()
    if got == want:
        print(f"{name}: matches {pin.name}")
        return True
    diff = difflib.unified_diff(
        want.decode(errors="replace").splitlines(keepends=True),
        got.decode(errors="replace").splitlines(keepends=True),
        fromfile=f"{pin.name} (pinned)", tofile=f"{name} (this build)")
    sys.stdout.writelines(diff)
    print(f"\n{name}: stdout differs from {pin.name}", file=sys.stderr)
    return False


def record(bench_dir: Path, name: str, cache_dir: str | None) -> bool:
    got = run_bench(bench_dir, name, cache_dir)
    if got is None:
        return False
    (PIN_DIR / f"{name}.txt").write_bytes(got)
    print(f"{name}: recorded {len(got)} bytes")
    return True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", action="store_true",
                    help="rewrite the pins from this build's output")
    ap.add_argument("--cache-dir",
                    help="trace-cache directory to run the benches with "
                         "(default: cache off)")
    ap.add_argument("bench_dir", type=Path,
                    help="directory holding the built bench binaries")
    ap.add_argument("names", nargs="*",
                    help="benches to check or record (--record without "
                         "names records every pinned bench)")
    args = ap.parse_args()

    names = args.names
    if not names:
        if not args.record:
            ap.error("name at least one bench to check")
        names = sorted(p.stem for p in PIN_DIR.glob("*.txt"))
    step = record if args.record else check
    ok = [step(args.bench_dir, n, args.cache_dir) for n in names]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
