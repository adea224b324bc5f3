#!/usr/bin/env python3
"""Fixture tests for tea_lint.

Runs the linter over the seeded tests/lint_fixtures tree, against the
real tree's enums and codec, and asserts the exact (file, line, rule)
set it reports. Expectations live in the fixtures themselves: every line
tagged `EXPECT(<rule>)` must produce a violation with that rule id on
that line, and nothing else may fire — so the clean counterparts double
as false-positive regression tests, and the allow() annotations prove
suppression works.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lint_common import iter_source_files  # noqa: E402
from tea_lint import Linter  # noqa: E402

EXPECT_RE = re.compile(r"EXPECT\(([a-z-]+)\)")
VIOLATION_RE = re.compile(r"^(.+?):(\d+): \[([a-z-]+)\]")


def expected_violations(fixture_root: Path) -> set[tuple[str, int, str]]:
    out: set[tuple[str, int, str]] = set()
    for path in iter_source_files(fixture_root):
        rel = str(path.relative_to(fixture_root))
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for m in EXPECT_RE.finditer(line):
                out.add((rel, lineno, m.group(1)))
    return out


def main() -> int:
    repo = Path(__file__).resolve().parents[2]
    fixture_root = repo / "tests" / "lint_fixtures"
    if not fixture_root.is_dir():
        print(f"test_tea_lint: {fixture_root} missing", file=sys.stderr)
        return 2

    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        rc = Linter(fixture_root, tree=repo).run()

    reported: set[tuple[str, int, str]] = set()
    for line in report.getvalue().splitlines():
        m = VIOLATION_RE.match(line)
        if m:
            reported.add((m.group(1), int(m.group(2)), m.group(3)))

    expected = expected_violations(fixture_root)
    missing = expected - reported
    surprise = reported - expected
    if missing or surprise:
        for f, l, rule in sorted(missing):
            print(f"MISSING  {f}:{l}: [{rule}] (expected, not reported)")
        for f, l, rule in sorted(surprise):
            print(f"SURPRISE {f}:{l}: [{rule}] (reported, not expected)")
        print(report.getvalue(), end="")
        print(f"test_tea_lint: FAIL ({len(missing)} missing, "
              f"{len(surprise)} unexpected; linter exit {rc})")
        return 1

    # With seeded violations present the linter itself must have
    # failed; a 0 here would mean the gate can't actually gate.
    if expected and rc != 1:
        print(f"test_tea_lint: FAIL (linter exit {rc}, expected 1 with "
              "seeded violations)")
        return 1

    print(f"test_tea_lint: PASS ({len(expected)} seeded violations "
          "matched exactly, clean fixtures silent)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
