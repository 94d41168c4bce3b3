#!/usr/bin/env python3
"""Project-invariant linter for the ATM repo.

Machine-checks conventions the compiler can't express (and that code review
keeps re-litigating):

  R1  mo-comment        Every atomic operation that names a non-seq_cst
                        memory order carries a `// mo:` rationale comment on
                        the same line or within the 4 lines above it.
  R2  hot-path-mutex    No blocking lock (atm::Mutex/CondVar or the raw std
                        types) in hot-path files: the scheduler, the
                        work-stealing deque, the THT, and the task arena. The
                        scheduler's park path is allowlisted — parking is by
                        definition the cold path.
  R3  obs-compile-out   Every hot-path instrument mutator in obs/metrics.hpp
                        (Counter::inc, Gauge::set/add, LatencyHistogram::
                        record) is gated on `kObsEnabled`, so -DATM_OBS=OFF
                        compiles it to nothing.
  R4  include-hygiene   Headers start with `#pragma once`; files that name
                        the lock wrappers include the defining header; no
                        raw <mutex>/<shared_mutex>/<condition_variable>
                        includes outside src/common/mutex.hpp.
  R5  raw-lock-types    No raw std::mutex / std::lock_guard /
                        std::unique_lock / std::shared_lock /
                        std::shared_mutex / std::condition_variable /
                        std::scoped_lock in src/ outside the wrapper itself
                        (src/common/mutex.hpp). The wrappers carry the
                        Thread Safety annotations; a raw type is a hole in
                        the analysis.

Grandfathered exceptions live in tools/lint/lint_allowlist.txt, one per
line: `<rule> <path-suffix> <line-substring>` — a finding is suppressed when
all three match. Keep that file shrinking, not growing.

Usage: python3 tools/atm_lint.py [--root REPO_ROOT]
Exits 0 on a clean tree, 1 with `path:line: [rule] message` findings.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

MO_RE = re.compile(r"memory_order_(?:relaxed|acquire|release|acq_rel|consume)")
MO_COMMENT_RE = re.compile(r"//.*\bmo:")
# A defaulted memory-order *parameter* is not an operation; the call sites
# that pass (or default) it are.
MO_DEFAULT_ARG_RE = re.compile(r"memory_order\s+\w+\s*=\s*std::memory_order_")
MO_LOOKBACK = 5

# Hot-path files for R2 (path suffixes relative to the repo root). The
# central ReadyQueue is deliberately absent: it IS the paper's locked RQ
# baseline, kept for A/B runs, and is never on the work-stealing hot path.
HOT_PATH_FILES = (
    "src/runtime/scheduler.hpp",
    "src/runtime/scheduler.cpp",
    "src/runtime/work_steal_deque.hpp",
    "src/runtime/task_arena.hpp",
    "src/atm/tht.hpp",
    "src/atm/tht.cpp",
)
BLOCKING_LOCK_RE = re.compile(
    r"\b(?:MutexLock|CondVar|SharedWriteLock|SharedReadLock)\b"
    r"|\b(?:atm::)?(?:Mutex|SharedMutex)\s+\w+"
    r"|std::(?:mutex|shared_mutex|condition_variable)"
)

RAW_LOCK_RE = re.compile(
    r"std::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|shared_timed_mutex"
    r"|lock_guard|unique_lock|shared_lock|scoped_lock|condition_variable"
    r"|condition_variable_any)\b"
)
RAW_LOCK_EXEMPT = ("src/common/mutex.hpp",)

RAW_LOCK_INCLUDE_RE = re.compile(
    r'#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>'
)

# R4: type name -> header that must be included by any file naming it.
WRAPPER_HEADERS = {
    re.compile(r"\b(?:MutexLock|CondVar|SharedWriteLock|SharedReadLock"
               r"|atm::Mutex|atm::SharedMutex)\b"): "common/mutex.hpp",
    re.compile(r"\bSpinLockGuard\b"): "common/spin_lock.hpp",
    re.compile(r"\b(?:SharedSpinWriteLock|SharedSpinReadLock"
               r"|SharedSpinMutex)\b"): "common/shared_spin_mutex.hpp",
}

# R3: mutator name -> class, all in src/obs/metrics.hpp. The body (up to
# the next blank-brace line) must mention kObsEnabled.
OBS_MUTATORS = ("void inc(", "void set(", "void add(", "void record(")
OBS_BODY_SPAN = 8


def strip_code(lines: list[str]) -> list[str]:
    """Lines with comments and string literals blanked (structure kept)."""
    out = []
    in_block = False
    for line in lines:
        buf = []
        i = 0
        in_str = None
        while i < len(line):
            ch = line[i]
            nxt = line[i + 1] if i + 1 < len(line) else ""
            if in_block:
                if ch == "*" and nxt == "/":
                    in_block = False
                    i += 2
                    continue
                i += 1
                continue
            if in_str:
                if ch == "\\":
                    i += 2
                    continue
                if ch == in_str:
                    in_str = None
                    buf.append(ch)
                i += 1
                continue
            if ch == "/" and nxt == "/":
                break
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                in_str = ch
                buf.append(ch)
                i += 1
                continue
            buf.append(ch)
            i += 1
        out.append("".join(buf))
    return out


class Linter:
    def __init__(self, root: Path):
        self.root = root
        self.findings: list[tuple[str, int, str, str]] = []
        self.allow = self._load_allowlist()

    def _load_allowlist(self):
        allow = []
        path = self.root / "tools" / "lint" / "lint_allowlist.txt"
        if path.is_file():
            for raw in path.read_text().splitlines():
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(None, 2)
                if len(parts) == 3:
                    allow.append(tuple(parts))
        return allow

    def report(self, path: Path, lineno: int, rule: str, msg: str,
               line: str) -> None:
        rel = path.relative_to(self.root).as_posix()
        for arule, apath, asub in self.allow:
            if arule == rule and rel.endswith(apath) and asub in line:
                return
        self.findings.append((rel, lineno, rule, msg))

    # --- R1 ---------------------------------------------------------------
    def check_mo_comments(self, path: Path, lines: list[str]) -> None:
        for n, line in enumerate(lines, 1):
            if not MO_RE.search(line):
                continue
            if MO_DEFAULT_ARG_RE.search(line):
                continue
            window = lines[max(0, n - 1 - MO_LOOKBACK):n]
            if any(MO_COMMENT_RE.search(w) for w in window):
                continue
            self.report(path, n, "R1",
                        "non-seq_cst atomic op without a `// mo:` rationale "
                        f"comment within {MO_LOOKBACK} lines above", line)

    # --- R2 ---------------------------------------------------------------
    def check_hot_path(self, path: Path, code: list[str]) -> None:
        rel = path.relative_to(self.root).as_posix()
        if rel not in HOT_PATH_FILES:
            return
        for n, line in enumerate(code, 1):
            if BLOCKING_LOCK_RE.search(line):
                self.report(path, n, "R2",
                            "blocking lock in a hot-path file (spinlocks "
                            "only here; allowlist genuinely cold paths)",
                            line)

    # --- R3 ---------------------------------------------------------------
    def check_obs_compile_out(self, path: Path, code: list[str]) -> None:
        if path.relative_to(self.root).as_posix() != "src/obs/metrics.hpp":
            return
        for n, line in enumerate(code, 1):
            if not any(m in line for m in OBS_MUTATORS):
                continue
            if ";" in line.split(")", 1)[-1] and "{" not in line:
                continue  # declaration only
            body = code[n - 1:n - 1 + OBS_BODY_SPAN]
            if not any("kObsEnabled" in b for b in body):
                self.report(path, n, "R3",
                            "instrument mutator not gated on kObsEnabled "
                            "(must compile away under ATM_OBS=OFF)", line)

    # --- R4 ---------------------------------------------------------------
    def check_include_hygiene(self, path: Path, lines: list[str],
                              code: list[str]) -> None:
        rel = path.relative_to(self.root).as_posix()
        text = "\n".join(code)
        # Includes come from the raw lines: strip_code blanks string
        # literals, which would erase every include path.
        raw_text = "\n".join(lines)
        if path.suffix == ".hpp":
            first_directive = next(
                (l.strip() for l in lines if l.strip().startswith("#")), "")
            if first_directive != "#pragma once":
                self.report(path, 1, "R4",
                            "header's first preprocessor directive must be "
                            "`#pragma once`", lines[0] if lines else "")
        includes = set(re.findall(r'#\s*include\s*"([^"]+)"', raw_text))
        if path.suffix == ".cpp":
            # A .cpp is self-contained through its own header: foo.cpp
            # including foo.hpp inherits the wrapper includes the header
            # already carries (headers stay strictly self-contained).
            stem = path.stem
            for inc in list(includes):
                if Path(inc).stem == stem:
                    inc_path = self.root / "src" / inc
                    if inc_path.is_file():
                        includes |= set(re.findall(
                            r'#\s*include\s*"([^"]+)"',
                            inc_path.read_text(encoding="utf-8")))
        for type_re, header in WRAPPER_HEADERS.items():
            if rel.endswith(header):
                continue
            if type_re.search(text) and header not in includes:
                n = next((i for i, l in enumerate(code, 1)
                          if type_re.search(l)), 1)
                self.report(path, n, "R4",
                            f'names {type_re.pattern.split("|")[0]}... but '
                            f'does not include "{header}"', code[n - 1])
        if not rel.endswith(RAW_LOCK_EXEMPT):
            for n, line in enumerate(code, 1):
                if RAW_LOCK_INCLUDE_RE.search(line):
                    self.report(path, n, "R4",
                                "raw lock header include outside "
                                "src/common/mutex.hpp (use the annotated "
                                "wrappers)", line)

    # --- R5 ---------------------------------------------------------------
    def check_raw_lock_types(self, path: Path, code: list[str]) -> None:
        rel = path.relative_to(self.root).as_posix()
        if any(rel.endswith(e) for e in RAW_LOCK_EXEMPT):
            return
        for n, line in enumerate(code, 1):
            if RAW_LOCK_RE.search(line):
                self.report(path, n, "R5",
                            "raw std lock type outside src/common/mutex.hpp "
                            "(use the annotated wrappers so Thread Safety "
                            "Analysis sees it)", line)

    # ----------------------------------------------------------------------
    def run(self) -> int:
        files = sorted((self.root / "src").rglob("*.hpp")) + \
                sorted((self.root / "src").rglob("*.cpp"))
        for path in files:
            lines = path.read_text(encoding="utf-8").splitlines()
            code = strip_code(lines)
            self.check_mo_comments(path, lines)
            self.check_hot_path(path, code)
            self.check_obs_compile_out(path, code)
            self.check_include_hygiene(path, lines, code)
            self.check_raw_lock_types(path, code)
        for rel, lineno, rule, msg in self.findings:
            print(f"{rel}:{lineno}: [{rule}] {msg}")
        if self.findings:
            print(f"atm_lint: {len(self.findings)} finding(s)")
            return 1
        print(f"atm_lint: clean ({len(files)} files)")
        return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent.parent)
    args = ap.parse_args()
    return Linter(args.root.resolve()).run()


if __name__ == "__main__":
    sys.exit(main())
