#!/usr/bin/env python3
"""Minimal run-clang-tidy: lint every translation unit under a source
root using the build tree's compile_commands.json, in parallel, failing
(exit 1) when any file produces diagnostics. Kept dependency-free so the
`lint` CMake target works with a bare clang-tidy install.

File discovery defers to lint_common (shared with tea_lint):
compile_commands entries are intersected with the lintable file set, so
build-tree TUs and anything excluded there never get tidied here.

`--header-checks` runs a second clang-tidy pass per TU with only the
named checks enabled, keeping diagnostics located in header files.
.clang-tidy cannot scope a check to headers; this is where the
"misc-const-correctness, headers only" policy is implemented.
"""

from __future__ import annotations

import argparse
import concurrent.futures as futures
import json
import os
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lint_common import iter_source_files  # noqa: E402

DIAG_RE = re.compile(r"^(/[^:]+):\d+:\d+: (?:warning|error): ")


def header_diags(output: str, root: str) -> str:
    """Keep only diagnostic blocks whose location is a header under
    `root` (a block is the diagnostic line plus its context lines)."""
    kept: list[str] = []
    keeping = False
    for line in output.splitlines():
        m = DIAG_RE.match(line)
        if m:
            loc = m.group(1)
            keeping = loc.endswith(".hh") and loc.startswith(root)
        if keeping:
            kept.append(line)
    return "\n".join(kept)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--clang-tidy", default="clang-tidy",
                    help="clang-tidy executable")
    ap.add_argument("-p", dest="build_dir", required=True, type=Path,
                    help="build dir containing compile_commands.json")
    ap.add_argument("--source-root", required=True, type=Path,
                    help="only lint files under this directory")
    ap.add_argument("--header-checks", default="misc-const-correctness",
                    help="comma-separated checks run in a second pass "
                         "whose diagnostics are kept only when located "
                         "in .hh files (empty disables the pass)")
    ap.add_argument("-j", dest="jobs", type=int,
                    default=os.cpu_count() or 1)
    args = ap.parse_args()

    db = args.build_dir / "compile_commands.json"
    if not db.exists():
        print(f"lint: {db} not found (configure with "
              "CMAKE_EXPORT_COMPILE_COMMANDS=ON)", file=sys.stderr)
        return 2

    root = args.source_root.resolve()
    repo = root.parent if root.name == "src" else root
    lintable = {str(p) for p in iter_source_files(repo)}
    files = sorted({str(Path(e["file"]).resolve())
                    for e in json.loads(db.read_text())
                    if str(Path(e["file"]).resolve()) in lintable})
    if not files:
        print(f"lint: no translation units under {root}",
              file=sys.stderr)
        return 2

    def tidy(path: str) -> tuple[str, int, str]:
        r = subprocess.run(
            [args.clang_tidy, "-p", str(args.build_dir),
             "--quiet", "--warnings-as-errors=*", path],
            capture_output=True, text=True)
        output = (r.stdout + r.stderr).strip()
        code = r.returncode
        if args.header_checks:
            # Second pass: header-scoped checks. clang-tidy only sees
            # headers through a TU, so run per-TU with header filtering
            # wide open and keep diagnostics that land in .hh files.
            h = subprocess.run(
                [args.clang_tidy, "-p", str(args.build_dir),
                 "--quiet", f"--checks=-*,{args.header_checks}",
                 "--header-filter=.*", path],
                capture_output=True, text=True)
            diags = header_diags(h.stdout + h.stderr, str(repo))
            if diags:
                code = code or 1
                output = (output + "\n" + diags).strip()
        return path, code, output

    failures = 0
    with futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for path, code, output in pool.map(tidy, files):
            rel = os.path.relpath(path, root)
            if code != 0:
                failures += 1
                print(f"--- {rel}")
                if output:
                    print(output)
    if failures:
        print(f"lint: FAIL ({failures}/{len(files)} files with "
              "diagnostics)")
        return 1
    print(f"lint: PASS ({len(files)} translation units clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
