#!/usr/bin/env python3
"""tea_lint: project-specific static rules for the TEA tree.

Seven rules, each enforcing an invariant the compiler cannot:

  naked-new          No naked `new` / `malloc`-family allocation in src/
                     outside allocator shims: ownership must be typed
                     (make_unique/make_shared/containers). Suppress a
                     deliberate use with `tea_lint: allow(naked-new)`.

  unchecked-io       In src/core/trace_io.cc every stdio/syscall result
                     (fwrite/fflush/fseek/fclose/fsync/rename/remove)
                     must be consumed: CompactTraceWriter and
                     MappedTraceFile error paths propagate, never drop.
                     Suppress a deliberately ignored result (e.g. cleanup
                     on an already-failed path) with
                     `tea_lint: allow(unchecked-io)`.

  codec-version-lock src/core/trace_codec.cc must pin its frame layout
                     with static_asserts that reference traceCodecVersion
                     and sizeof(ChunkFrameHeader), so any layout change
                     fails to compile until the codec version is bumped.

  enum-switch        Every switch over Event / TraceEventKind /
                     CommitState must name every enumerator and must not
                     use `default:` (which would mute -Wswitch when a
                     member is added). Suppress with
                     `tea_lint: allow(partial-switch)` on or just above
                     the switch.

  unguarded-worker   Every lambda handed to a std::thread (directly or
                     via emplace_back/push_back on a
                     std::vector<std::thread>) must contain a `catch`:
                     an exception escaping a thread body is
                     std::terminate, which turns a containable
                     per-experiment fault into process death. When the
                     body provably cannot throw (e.g. it only calls a
                     callee that catches internally), annotate the
                     spawn site with `tea_lint: allow(unguarded-worker)`
                     and say why in a comment.

  raw-sync           No raw `std::mutex` / `std::condition_variable` /
                     `std::lock_guard` / `std::unique_lock` /
                     `std::scoped_lock` in src/ outside
                     common/sync.hh: use tea::Mutex / tea::CondVar /
                     tea::MutexLock so Clang's thread-safety analysis
                     sees every lock (see DESIGN.md, "Compile-time
                     concurrency analysis"). Suppress with
                     `tea_lint: allow(raw-sync)`.

  hot-alloc          Inside functions annotated `// tea_lint: hot` in
                     src/core/ and src/profilers/, no heap allocation
                     may occur: no new/make_unique/make_shared/malloc,
                     and no push_back/emplace_back on a container that
                     is not `reserve()`d somewhere in the same file
                     (the fast-path contract: per-cycle work — and the
                     batched onBatch/add inner loops of the profilers —
                     runs entirely in pre-sized storage). Suppress a
                     deliberate cold-path allocation with
                     `tea_lint: allow(hot-alloc)`.

Exit status 0 when clean; 1 with `file:line: [rule] message` diagnostics
otherwise.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lint_common import iter_source_files  # noqa: E402

IO_CALLS = ("fwrite", "fflush", "fseek", "fclose", "fsync", "rename",
            "remove", "fputs", "fputc")

ENUMS = {
    "Event": Path("src/events/event.hh"),
    "CommitState": Path("src/events/event.hh"),
    "TraceEventKind": Path("src/core/trace_buffer.hh"),
}


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literal contents, preserving
    newlines so line numbers survive."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated; be forgiving
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def allows(raw_lines: list[str], lineno: int, tag: str,
           lookback: int = 2) -> bool:
    """True when an `tea_lint: allow(<tag>)` annotation covers
    1-based line `lineno` (same line or up to `lookback` lines above)."""
    needle = f"tea_lint: allow({tag})"
    lo = max(0, lineno - 1 - lookback)
    return any(needle in raw_lines[k] for k in range(lo, lineno))


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.violations: list[str] = []
        self.files_checked = 0

    def violate(self, path: Path, lineno: int, rule: str, msg: str):
        rel = path.relative_to(self.root)
        self.violations.append(f"{rel}:{lineno}: [{rule}] {msg}")

    # --- rule: naked-new ------------------------------------------------

    NEW_RE = re.compile(r"\bnew\b(?!\s*\()")  # excludes placement-new `new (`
    ALLOC_RE = re.compile(r"\b(malloc|calloc|realloc|free)\s*\(")

    def check_allocations(self, path: Path, stripped: str,
                          raw_lines: list[str]):
        for lineno, line in enumerate(stripped.splitlines(), 1):
            if self.NEW_RE.search(line):
                if not allows(raw_lines, lineno, "naked-new", lookback=0):
                    self.violate(path, lineno, "naked-new",
                                 "naked `new`: use make_unique/"
                                 "make_shared or annotate "
                                 "`tea_lint: allow(naked-new)`")
            m = self.ALLOC_RE.search(line)
            if m and not allows(raw_lines, lineno, "naked-new",
                                lookback=0):
                self.violate(path, lineno, "naked-new",
                             f"raw `{m.group(1)}()`: use typed "
                             "ownership or annotate "
                             "`tea_lint: allow(naked-new)`")

    # --- rule: unchecked-io ---------------------------------------------

    IO_STMT_RE = re.compile(
        r"^\s*(?:::|std::)?(" + "|".join(IO_CALLS) + r")\s*\(")

    def check_unchecked_io(self, path: Path, stripped: str,
                           raw_lines: list[str]):
        lines = stripped.splitlines()
        for lineno, line in enumerate(lines, 1):
            m = self.IO_STMT_RE.match(line)
            if not m:
                continue
            # Only statement-position calls: when the previous non-blank
            # line continues an expression (&&, ||, =, comma, open
            # paren), the result is being consumed.
            prev = ""
            for k in range(lineno - 2, -1, -1):
                if lines[k].strip():
                    prev = lines[k].strip()
                    break
            if prev and prev[-1] in "&|=,(<>+-?:":
                continue
            if allows(raw_lines, lineno, "unchecked-io"):
                continue
            self.violate(path, lineno, "unchecked-io",
                         f"result of {m.group(1)}() discarded: trace "
                         "writer error paths must fatal or propagate "
                         "(annotate `tea_lint: allow(unchecked-io)` "
                         "when ignoring is deliberate)")

    # --- rule: codec-version-lock ---------------------------------------

    def check_codec_lock(self, codec_cc: Path):
        text = codec_cc.read_text()
        asserts = [l for l in text.splitlines() if "static_assert" in l]
        joined = text
        ok_version = ("static_assert" in joined
                      and "traceCodecVersion" in "".join(asserts))
        ok_header = any("ChunkFrameHeader" in l for l in asserts)
        if not ok_version:
            self.violate(codec_cc, 1, "codec-version-lock",
                         "trace_codec.cc must static_assert the frame "
                         "layout against traceCodecVersion")
        if not ok_header:
            self.violate(codec_cc, 1, "codec-version-lock",
                         "trace_codec.cc must static_assert "
                         "sizeof(ChunkFrameHeader)")

    # --- rule: enum-switch ----------------------------------------------

    def parse_enum_members(self, header: Path, enum: str) -> list[str]:
        text = strip_comments_and_strings(header.read_text())
        m = re.search(
            r"enum\s+class\s+" + enum + r"\b[^{]*\{(.*?)\}\s*;",
            text, re.DOTALL)
        if not m:
            return []
        members = []
        for part in m.group(1).split(","):
            part = part.strip()
            if not part:
                continue
            name = part.split("=")[0].strip()
            if re.fullmatch(r"[A-Za-z_]\w*", name):
                members.append(name)
        return members

    def iter_switches(self, stripped: str):
        """Yield (lineno, body) for each switch block."""
        for m in re.finditer(r"\bswitch\s*\(", stripped):
            start = stripped.find("{", m.end())
            if start < 0:
                continue
            depth = 0
            for i in range(start, len(stripped)):
                if stripped[i] == "{":
                    depth += 1
                elif stripped[i] == "}":
                    depth -= 1
                    if depth == 0:
                        lineno = stripped.count("\n", 0, m.start()) + 1
                        yield lineno, stripped[start:i + 1]
                        break

    def check_enum_switches(self, path: Path, stripped: str,
                            raw_lines: list[str],
                            members: dict[str, list[str]]):
        for lineno, body in self.iter_switches(stripped):
            for enum, names in members.items():
                if f"case {enum}::" not in re.sub(r"\s+", " ", body):
                    continue
                if allows(raw_lines, lineno, "partial-switch"):
                    continue
                if re.search(r"\bdefault\s*:", body):
                    self.violate(path, lineno, "enum-switch",
                                 f"switch over {enum} uses `default:`, "
                                 "muting -Wswitch when a member is "
                                 "added; cover every enumerator "
                                 "instead")
                flat = re.sub(r"\s+", " ", body)
                missing = [n for n in names
                           if f"case {enum}::{n}" not in flat]
                if missing:
                    self.violate(path, lineno, "enum-switch",
                                 f"switch over {enum} misses "
                                 f"enumerator(s): {', '.join(missing)}")

    # --- rule: unguarded-worker ------------------------------------------

    THREAD_VEC_RE = re.compile(r"std::vector\s*<\s*std::thread\s*>\s*(\w+)")

    def check_worker_guards(self, path: Path, stripped: str,
                            raw_lines: list[str]):
        vec_names = set(self.THREAD_VEC_RE.findall(stripped))
        spawn_res = [re.compile(r"\bstd::thread\s*\w*\s*[({]\s*\[")]
        if vec_names:
            names = "|".join(re.escape(n) for n in vec_names)
            spawn_res.append(re.compile(
                r"\b(?:" + names + r")\s*\.\s*"
                r"(?:emplace_back|push_back)\s*\(\s*\["))
        for spawn_re in spawn_res:
            for m in spawn_re.finditer(stripped):
                lineno = stripped.count("\n", 0, m.start()) + 1
                body = self.lambda_body(stripped, m.end() - 1)
                if body is None or re.search(r"\bcatch\b", body):
                    continue
                if allows(raw_lines, lineno, "unguarded-worker"):
                    continue
                self.violate(path, lineno, "unguarded-worker",
                             "thread-body lambda has no catch: an "
                             "escaped exception is std::terminate; "
                             "contain it (or annotate `tea_lint: "
                             "allow(unguarded-worker)` when the body "
                             "cannot throw)")

    @staticmethod
    def lambda_body(stripped: str, capture_open: int) -> str | None:
        """Body of the lambda whose `[` is at `capture_open`, or None
        when no balanced `{...}` follows (e.g. a parse oddity)."""
        start = stripped.find("{", capture_open)
        if start < 0:
            return None
        depth = 0
        for i in range(start, len(stripped)):
            if stripped[i] == "{":
                depth += 1
            elif stripped[i] == "}":
                depth -= 1
                if depth == 0:
                    return stripped[start:i + 1]
        return None

    # --- rule: raw-sync ---------------------------------------------------

    RAW_SYNC_RE = re.compile(
        r"\bstd::(mutex|condition_variable(?:_any)?|lock_guard|"
        r"unique_lock|scoped_lock|shared_mutex|shared_lock)\b")

    def check_raw_sync(self, path: Path, stripped: str,
                       raw_lines: list[str]):
        for lineno, line in enumerate(stripped.splitlines(), 1):
            m = self.RAW_SYNC_RE.search(line)
            if not m:
                continue
            if allows(raw_lines, lineno, "raw-sync"):
                continue
            self.violate(path, lineno, "raw-sync",
                         f"raw `std::{m.group(1)}`: use tea::Mutex/"
                         "CondVar/MutexLock from common/sync.hh so the "
                         "thread-safety analysis sees the lock "
                         "(annotate `tea_lint: allow(raw-sync)` when "
                         "the std type is genuinely required)")

    # --- rule: hot-alloc --------------------------------------------------

    HOT_NEW_RE = re.compile(
        r"\bnew\b|\b(?:std::)?(?:make_unique|make_shared)\s*<|"
        r"\b(?:malloc|calloc|realloc)\s*\(")
    HOT_PUSH_RE = re.compile(
        r"(\w+(?:\s*\[[^\]]*\])?)\s*(?:\.|->)\s*"
        r"(push_back|emplace_back)\s*\(")

    def hot_scopes(self, stripped: str, raw_lines: list[str]):
        """Yield (start_line, end_line) 1-based inclusive spans of the
        function bodies annotated `// tea_lint: hot` (the annotation
        sits on the line above the function's return type)."""
        offsets = [0]
        for line in stripped.splitlines():
            offsets.append(offsets[-1] + len(line) + 1)
        for idx, raw in enumerate(raw_lines):
            if "tea_lint: hot" not in raw or "allow(" in raw:
                continue
            pos = offsets[idx + 1] if idx + 1 < len(offsets) else None
            if pos is None:
                continue
            start = stripped.find("{", pos)
            if start < 0:
                continue
            depth = 0
            for i in range(start, len(stripped)):
                if stripped[i] == "{":
                    depth += 1
                elif stripped[i] == "}":
                    depth -= 1
                    if depth == 0:
                        yield (stripped.count("\n", 0, start) + 1,
                               stripped.count("\n", 0, i) + 1)
                        break

    def check_hot_alloc(self, path: Path, stripped: str,
                        raw_lines: list[str]):
        lines = stripped.splitlines()
        for lo, hi in self.hot_scopes(stripped, raw_lines):
            for lineno in range(lo, hi + 1):
                line = lines[lineno - 1]
                if self.HOT_NEW_RE.search(line):
                    if not allows(raw_lines, lineno, "hot-alloc"):
                        self.violate(
                            path, lineno, "hot-alloc",
                            "heap allocation in a `tea_lint: hot` "
                            "scope: hoist it to init()/setup or "
                            "annotate `tea_lint: allow(hot-alloc)`")
                    continue
                for m in self.HOT_PUSH_RE.finditer(line):
                    name = re.sub(r"\s*\[[^\]]*\]", "", m.group(1))
                    reserve_re = (re.escape(name) +
                                  r"(?:\s*\[[^\]]*\])?\s*\.\s*reserve\s*\(")
                    if re.search(reserve_re, stripped):
                        continue
                    if allows(raw_lines, lineno, "hot-alloc"):
                        continue
                    self.violate(
                        path, lineno, "hot-alloc",
                        f"`{name}.{m.group(2)}()` in a `tea_lint: hot` "
                        f"scope but `{name}` is never reserve()d in "
                        "this file: pre-size it or annotate "
                        "`tea_lint: allow(hot-alloc)`")

    # --- driver ----------------------------------------------------------

    def run(self) -> int:
        members = {e: self.parse_enum_members(self.root / h, e)
                   for e, h in ENUMS.items()}
        for enum, names in members.items():
            if not names:
                self.violate(self.root / ENUMS[enum], 1, "enum-switch",
                             f"could not parse members of enum {enum}")
        codec_cc = self.root / "src" / "core" / "trace_codec.cc"
        if codec_cc.exists():
            self.check_codec_lock(codec_cc)
        else:
            self.violate(self.root, 1, "codec-version-lock",
                         "src/core/trace_codec.cc is missing")
        for path in iter_source_files(self.root):
            self.files_checked += 1
            raw = path.read_text()
            raw_lines = raw.splitlines()
            stripped = strip_comments_and_strings(raw)
            self.check_allocations(path, stripped, raw_lines)
            if path.name == "trace_io.cc":
                self.check_unchecked_io(path, stripped, raw_lines)
            self.check_enum_switches(path, stripped, raw_lines, members)
            self.check_worker_guards(path, stripped, raw_lines)
            if path.name != "sync.hh":
                self.check_raw_sync(path, stripped, raw_lines)
            if path.parent.name in ("core", "profilers"):
                self.check_hot_alloc(path, stripped, raw_lines)

        if self.violations:
            for v in self.violations:
                print(v)
            print(f"tea_lint: FAIL ({len(self.violations)} violation(s) "
                  f"in {self.files_checked} files)")
            return 1
        print(f"tea_lint: PASS ({self.files_checked} files, 7 rules)")
        return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, default=Path.cwd(),
                    help="repository root (contains src/)")
    args = ap.parse_args()
    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"tea_lint: no src/ under {root}", file=sys.stderr)
        return 2
    return Linter(root).run()


if __name__ == "__main__":
    sys.exit(main())
