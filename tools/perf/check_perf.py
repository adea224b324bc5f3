#!/usr/bin/env python3
"""Compare a freshly measured benchmark JSON against a checked-in
baseline and fail on regression.

Both files are flat JSON objects as written by bench/perf_simulator
(BENCH_simulator.json, BENCH_trace_cache.json). The comparison is on one
or more throughput keys (higher is better), each given with a repeated
--key flag: exit 1 if any current value falls more than --max-regress
below its baseline. Improvements never fail; a gentle reminder is
printed when a baseline looks stale (current value far above it) so it
gets refreshed. On failure a per-field delta table of every compared
key is printed so the offending fields are visible at a glance.

Independent of the relative comparison, --min KEY=VALUE (repeatable)
gates a key of the *current* JSON against an absolute floor. This is
for invariants that must hold regardless of what the baseline says —
e.g. speedup_vs_reference >= 1.0, which once silently drifted to 0.94
because only the relative check ran.

Usage:
    check_perf.py BASELINE.json CURRENT.json \
        --key decode_cycles_per_second \
        --key warm_replay_cycles_per_second [--max-regress 0.20] \
        --min speedup_vs_reference=1.0
"""

import argparse
import sys
import json


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"check_perf: cannot read {path}: {e}")


def value_of(data: dict, path: str, key: str) -> float:
    if key not in data:
        sys.exit(f"check_perf: {path} has no key '{key}'")
    value = data[key]
    if not isinstance(value, (int, float)) or value <= 0:
        sys.exit(f"check_perf: {path}[{key}] = {value!r} is not a "
                 "positive number")
    return float(value)


def delta_table(rows) -> str:
    """Render compared fields as an aligned table (used on failure)."""
    header = ("key", "baseline", "current", "delta", "status")
    cells = [header] + [
        (key, f"{base:,.0f}", f"{cur:,.0f}", f"{change:+.1%}", status)
        for key, base, cur, change, status in rows
    ]
    widths = [max(len(row[c]) for row in cells) for c in range(len(header))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(w)
                               for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="checked-in baseline JSON")
    ap.add_argument("current", help="freshly measured JSON")
    ap.add_argument("--key", action="append", dest="keys", metavar="KEY",
                    help="throughput key to compare, higher is better "
                         "(repeatable; default "
                         "fastpath_cycles_per_second)")
    ap.add_argument("--max-regress", type=float, default=0.20,
                    help="maximum tolerated fractional regression "
                         "(default 0.20)")
    ap.add_argument("--min", action="append", dest="floors",
                    metavar="KEY=VALUE", default=[],
                    help="absolute floor on a key of CURRENT, checked "
                         "independently of the baseline (repeatable)")
    args = ap.parse_args()
    keys = args.keys or ["fastpath_cycles_per_second"]

    floors = []
    for spec in args.floors:
        key, sep, raw = spec.partition("=")
        if not sep or not key:
            sys.exit(f"check_perf: --min expects KEY=VALUE, got {spec!r}")
        try:
            floors.append((key, float(raw)))
        except ValueError:
            sys.exit(f"check_perf: --min {key}: {raw!r} is not a number")

    base_data = load(args.baseline)
    cur_data = load(args.current)

    rows = []
    failed = False
    for key in keys:
        base = value_of(base_data, args.baseline, key)
        cur = value_of(cur_data, args.current, key)
        change = (cur - base) / base
        status = "FAIL" if change < -args.max_regress else "ok"
        failed = failed or status == "FAIL"
        rows.append((key, base, cur, change, status))
        print(f"check_perf: {key}: baseline {base:,.0f}, "
              f"current {cur:,.0f} ({change:+.1%})")
        if change > args.max_regress:
            print(f"check_perf: note — {key} is well above baseline; "
                  "consider refreshing the checked-in JSON")

    for key, floor in floors:
        cur = value_of(cur_data, args.current, key)
        if cur < floor:
            failed = True
            print(f"check_perf: FLOOR {key}: current {cur:g} "
                  f"< required {floor:g}", file=sys.stderr)
        else:
            print(f"check_perf: {key}: {cur:g} >= floor {floor:g}")

    if failed:
        print(f"check_perf: FAIL — regression beyond the "
              f"{args.max_regress:.0%} budget or a floor violated\n" +
              delta_table(rows),
              file=sys.stderr)
        return 1
    print("check_perf: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
