"""Shared file discovery for the TEA lint tools.

One place decides which files the linters see, so tea_lint and
run_clang_tidy cannot drift apart: the same suffixes, the same excluded
directories (build trees, third_party), and the same tests opt-in.
Tools import:

  iter_source_files(root, include_tests=...)  -> sorted list of Paths
  is_excluded(path)                           -> True for build trees
  SRC_SUFFIXES                                -> {".cc", ".hh"}
"""

from __future__ import annotations

from pathlib import Path

#: File suffixes the linters consider source code.
SRC_SUFFIXES = {".cc", ".hh"}

#: Directory names (path components) never linted. Build trees are
#: matched by prefix below so out-of-source `build-clang-tsa` style
#: directories are covered without enumerating presets.
EXCLUDE_DIR_NAMES = {"third_party", ".git"}

#: Any path component starting with one of these prefixes is excluded.
EXCLUDE_DIR_PREFIXES = ("build",)

#: Directories scanned by default, relative to the repository root.
DEFAULT_SUBDIRS = ("src",)

#: Directories added when tests are opted in.
TEST_SUBDIRS = ("tests",)


def is_excluded(path: Path) -> bool:
    """True when any path component names a build tree or other
    never-linted directory."""
    for part in path.parts:
        if part in EXCLUDE_DIR_NAMES:
            return True
        if any(part.startswith(p) for p in EXCLUDE_DIR_PREFIXES):
            return True
    return False


def iter_source_files(root: Path, include_tests: bool = False,
                      suffixes: set[str] | None = None) -> list[Path]:
    """Every lintable source file under `root`, sorted.

    Scans DEFAULT_SUBDIRS (plus TEST_SUBDIRS when `include_tests`),
    keeping files whose suffix is in `suffixes` (default SRC_SUFFIXES)
    and dropping anything under an excluded directory.
    """
    if suffixes is None:
        suffixes = SRC_SUFFIXES
    subdirs = DEFAULT_SUBDIRS + (TEST_SUBDIRS if include_tests else ())
    out: list[Path] = []
    for sub in subdirs:
        base = root / sub
        if not base.is_dir():
            continue
        for path in base.rglob("*"):
            if path.suffix not in suffixes:
                continue
            if is_excluded(path.relative_to(root)):
                continue
            out.append(path)
    return sorted(out)
