#!/usr/bin/env python3
"""Project-wide static lint for the atypical codebase (stdlib only).

Machine-enforces the conventions that DESIGN.md §10 documents.  Each check
has a stable ID; findings print as `file:line: ALxxx name: message`.

Checks
  AL001 nolint-justification   every NOLINT / NOLINTNEXTLINE carries a
                               `: <why>` justification after the check list.
  AL002 metric-name            obs metric names registered in src/ follow the
                               DESIGN §9 scheme (lowercase dotted path;
                               latency histograms end in `seconds`, count
                               histograms do not) and therefore fit
                               scripts/stats_schema.json.
  AL003 check-side-effect      no CHECK/DCHECK argument mutates state
                               (++/--/assignment/mutating calls): DCHECK
                               operands vanish in Release builds.
  AL004 raw-sync-primitive     no raw std::mutex / std::lock_guard /
                               std::condition_variable outside util/sync.h;
                               use the annotated wrappers.
  AL005 void-discard           a statement-level `(void)` discard carries a
                               trailing `// <why>` justification ([[nodiscard]]
                               escape hatch must be auditable).
  AL006 bare-assert            no bare `assert(`; use CHECK/DCHECK
                               (always-on / side-effect-free semantics).
  AL007 header-self-contained  every header compiles in isolation (built in;
                               run with --with-includes, it needs a C++
                               compiler).
  AL008 registered-metric      every `fault.*` / `degradation.*` metric name
                               registered in src/ appears in the
                               `resilienceMetrics` list of
                               scripts/stats_schema.json (DESIGN §12), and
                               every `serve.*` name in its `servingMetrics`
                               list (DESIGN §16), so both metric sets stay
                               closed and discoverable.  When the lint
                               covers all of src/ (tree mode) it also runs
                               the other direction: every name those lists
                               hold must be registered by some src/ file,
                               so a deleted metric cannot linger there.
  AL009 unordered-iteration    no iteration over std::unordered_map/set in
                               the deterministic modules (src/core, src/cube,
                               src/index): hash-layout order leaks into ids,
                               output, or accumulation order.  Iterate a
                               sorted view, or carry `NOLINT(AL009): <proof
                               of order-independence>`.  Membership lookups
                               (find/contains/operator[]) are fine.
  AL010 nondeterminism-source  no wall/monotonic clock reads, rand()/
                               std::random_device, or address-as-identity
                               casts in the deterministic modules.  Escape
                               hatches: the seeded util::Rng, and timing via
                               util/stopwatch.h + obs (results never depend
                               on it).
  AL011 guarded-by-coverage    a class that owns a util Mutex must annotate
                               every mutable field with ATYPICAL_GUARDED_BY /
                               ATYPICAL_PT_GUARDED_BY (atomics, CondVars and
                               const members are exempt) or justify with
                               `NOLINT(AL011): <why it is not shared>`.
  AL012 float-accumulation     no +=/-= reduction into a double/float
                               declared outside the loop while iterating an
                               unordered container in the deterministic
                               modules — float addition does not commute, so
                               hash order would perturb the sum past the
                               1e-6 similarity-slack contract.  Reduce over
                               a sorted view (or the galloping ordered path,
                               see core/similarity.cc).

Suppressions reuse the NOLINT convention and must themselves be justified
(AL001):   ... code ...  // NOLINT(AL003): counter is test-local
`NOLINTNEXTLINE(ALxxx): why` suppresses on the following line.

Usage:
  scripts/atypical_lint.py [paths...]     lint the tree (default: src tests
                                          bench examples)
  scripts/atypical_lint.py --with-includes   also run AL007
  scripts/atypical_lint.py --self-test    run the fixture suite in
                                          scripts/lint_fixtures/
  scripts/atypical_lint.py --list-discards   print the (void)-discard audit
                                          list (file:line: justification)
Exit status: 0 clean, 1 findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_DIRS = ["src", "tests", "bench", "examples"]
SOURCE_GLOBS = ("*.h", "*.cc")


@dataclasses.dataclass
class Finding:
    path: pathlib.Path
    line: int  # 1-based
    check: str  # "AL003"
    name: str  # "check-side-effect"
    message: str

    def render(self) -> str:
        try:
            rel = self.path.relative_to(REPO)
        except ValueError:
            rel = self.path
        return f"{rel}:{self.line}: {self.check} {self.name}: {self.message}"


@dataclasses.dataclass
class SourceFile:
    path: pathlib.Path
    raw: list[str]  # original lines, without trailing newline
    code: list[str]  # comments and string/char literals blanked out
    comments: list[str]  # the comment text per line ("" when none)


def strip_comments(text: str) -> tuple[list[str], list[str]]:
    """Returns (code_lines, comment_lines) with literals/comments blanked.

    Comments and string/character literals are replaced by spaces in the code
    view (so column numbers survive); the comment view holds only comment
    text.  Handles // and /* */ spanning lines; does not attempt raw strings
    (the codebase has none).
    """
    code_chars: list[str] = []
    comment_chars: list[str] = []
    state = "code"  # code | line_comment | block_comment | string | char
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                code_chars.append("  ")
                comment_chars.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                code_chars.append("  ")
                comment_chars.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                code_chars.append('"')
                comment_chars.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                code_chars.append("'")
                comment_chars.append(" ")
                i += 1
                continue
            code_chars.append(c)
            comment_chars.append(c if c == "\n" else " ")
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                code_chars.append("\n")
                comment_chars.append("\n")
            else:
                code_chars.append(" ")
                comment_chars.append(c)
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                code_chars.append("  ")
                comment_chars.append("  ")
                i += 2
                continue
            code_chars.append("\n" if c == "\n" else " ")
            comment_chars.append(c)
        elif state == "string":
            if c == "\\":
                code_chars.append("  ")
                comment_chars.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                code_chars.append('"')
            elif c == "\n":  # unterminated (macro continuation); bail to code
                state = "code"
                code_chars.append("\n")
            else:
                code_chars.append(" ")
            comment_chars.append("\n" if c == "\n" else " ")
        elif state == "char":
            if c == "\\":
                code_chars.append("  ")
                comment_chars.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                code_chars.append("'")
            elif c == "\n":
                state = "code"
                code_chars.append("\n")
            else:
                code_chars.append(" ")
            comment_chars.append("\n" if c == "\n" else " ")
        i += 1
    code = "".join(code_chars).split("\n")
    comments = "".join(comment_chars).split("\n")
    return code, comments


def load(path: pathlib.Path) -> SourceFile:
    text = path.read_text(encoding="utf-8")
    raw = text.split("\n")
    code, comments = strip_comments(text)
    # split("\n") on both views yields equal lengths by construction.
    return SourceFile(path=path, raw=raw, code=code, comments=comments)


# --- suppression handling ---------------------------------------------------

NOLINT_RE = re.compile(
    r"\bNOLINT(?P<next>NEXTLINE)?\b(?:\((?P<checks>[^)]*)\))?")


def iter_nolints(comment: str):
    """Yields (next_line, checks_or_None, justified) for real suppressions.

    A NOLINT token is a suppression when followed by `(checks)`, by `:`, or
    by nothing (end of comment).  Prose mentions — "a bare NOLINT is fine" —
    are ignored.  `checks` is None for the suppress-everything bare form.
    """
    for m in NOLINT_RE.finditer(comment):
        tail = comment[m.end():]
        has_parens = m.group("checks") is not None
        justified = re.match(r":\s*\S", tail) is not None
        if has_parens or justified or tail.strip() == "":
            yield bool(m.group("next")), m.group("checks"), justified


def suppressed(sf: SourceFile, line_idx: int, check_id: str) -> bool:
    """True if `check_id` is NOLINT-suppressed at raw line index `line_idx`."""
    for idx, need_next in ((line_idx, False), (line_idx - 1, True)):
        if idx < 0 or idx >= len(sf.comments):
            continue
        for next_line, checks, _ in iter_nolints(sf.comments[idx]):
            if next_line != need_next:
                continue
            if checks is None:  # bare NOLINT suppresses everything
                return True
            listed = [c.strip() for c in checks.split(",")]
            if check_id in listed or "*" in listed:
                return True
    return False


# --- AL001: NOLINT justification -------------------------------------------

def check_nolint_justification(sf: SourceFile) -> list[Finding]:
    findings = []
    for i, comment in enumerate(sf.comments):
        for _, _, justified in iter_nolints(comment):
            if not justified:
                findings.append(Finding(
                    sf.path, i + 1, "AL001", "nolint-justification",
                    "NOLINT without a `: <why>` justification"))
    return findings


# --- AL002: obs metric naming ----------------------------------------------

METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")
# A metric registration: Get{Counter,Gauge,Histogram}("name" ...).
METRIC_CALL_RE = re.compile(r"Get(Counter|Gauge|Histogram)\(\s*\"([^\"]*)\"")


def check_metric_names(sf: SourceFile) -> list[Finding]:
    # The §9 scheme governs production metrics: src/ only.  obs/ unit tests
    # use deliberately tiny names ("a", "h") to probe registry mechanics.
    rel = sf.path.relative_to(REPO).as_posix()
    if not (rel.startswith("src/") or rel.startswith("scripts/lint_fixtures/")):
        return []
    if rel.startswith("src/obs/"):  # the registry itself documents examples
        return []
    findings = []
    raw_text = "\n".join(sf.raw)
    for m in METRIC_CALL_RE.finditer(raw_text):
        kind, name = m.group(1), m.group(2)
        line = raw_text.count("\n", 0, m.start()) + 1
        if suppressed(sf, line - 1, "AL002"):
            continue
        if not METRIC_NAME_RE.match(name):
            findings.append(Finding(
                sf.path, line, "AL002", "metric-name",
                f"metric name {name!r} is not a lowercase dotted path "
                "(DESIGN §9)"))
            continue
        if kind == "Histogram":
            latency = True  # default layout is Latency()
            tail = raw_text[m.end(2) + 1:m.end(2) + 200]
            arg_tail = tail.split(")")[0]
            if "Counts" in arg_tail:
                latency = False
            if latency and not name.endswith("seconds"):
                findings.append(Finding(
                    sf.path, line, "AL002", "metric-name",
                    f"latency histogram {name!r} must end in 'seconds' "
                    "(DESIGN §9)"))
            if not latency and name.endswith("seconds"):
                findings.append(Finding(
                    sf.path, line, "AL002", "metric-name",
                    f"count histogram {name!r} must not end in 'seconds' "
                    "(DESIGN §9)"))
    return findings


# --- AL008: prefixed-metric registries ---------------------------------------

# Metric-name prefix -> (stats_schema.json registry key, DESIGN section).
REGISTERED_PREFIXES = {
    "fault.": ("resilienceMetrics", "DESIGN §12"),
    "degradation.": ("resilienceMetrics", "DESIGN §12"),
    "serve.": ("servingMetrics", "DESIGN §16"),
}
_metric_registries: dict[str, set[str]] | None = None


def metric_registry(key: str) -> set[str]:
    global _metric_registries
    if _metric_registries is None:
        schema = json.loads(
            (REPO / "scripts" / "stats_schema.json").read_text())
        _metric_registries = {
            k: set(schema.get(k, []))
            for k, _ in REGISTERED_PREFIXES.values()
        }
    return _metric_registries[key]


def check_resilience_metrics(sf: SourceFile) -> list[Finding]:
    # Same scope as AL002: production metrics live in src/.
    rel = sf.path.relative_to(REPO).as_posix()
    if not (rel.startswith("src/") or rel.startswith("scripts/lint_fixtures/")):
        return []
    findings = []
    raw_text = "\n".join(sf.raw)
    for m in METRIC_CALL_RE.finditer(raw_text):
        name = m.group(2)
        registry_key = None
        for prefix, (key, section) in REGISTERED_PREFIXES.items():
            if name.startswith(prefix):
                registry_key, design_section = key, section
                break
        if registry_key is None:
            continue
        line = raw_text.count("\n", 0, m.start()) + 1
        if suppressed(sf, line - 1, "AL008"):
            continue
        if name not in metric_registry(registry_key):
            findings.append(Finding(
                sf.path, line, "AL008", "registered-metric",
                f"metric {name!r} is not listed in "
                f"scripts/stats_schema.json {registry_key} "
                f"({design_section})"))
    return findings


def registered_metric_names(files: list[SourceFile]) -> set[str]:
    """Every metric name the files pass to Get{Counter,Gauge,Histogram}."""
    names: set[str] = set()
    for sf in files:
        names.update(m.group(2)
                     for m in METRIC_CALL_RE.finditer("\n".join(sf.raw)))
    return names


def check_unregistered_schema_entries(schema_path: pathlib.Path,
                                      schema_text: str,
                                      registered: set[str]) -> list[Finding]:
    """AL008's other direction: registry entries nothing registers."""
    schema = json.loads(schema_text)
    lines = schema_text.split("\n")
    findings = []
    for key, section in sorted(set(REGISTERED_PREFIXES.values())):
        for name in schema.get(key, []):
            if name in registered:
                continue
            line = next((i + 1 for i, text in enumerate(lines)
                         if f'"{name}"' in text), 1)
            findings.append(Finding(
                schema_path, line, "AL008", "registered-metric",
                f"{key} lists {name!r} but no src/ file registers it "
                f"({section})"))
    return findings


def check_schema_registries_tree() -> list[Finding]:
    """Tree mode: the schema registries against every src/ registration."""
    src_files = [load(f) for glob in SOURCE_GLOBS
                 for f in sorted((REPO / "src").rglob(glob))]
    schema_path = REPO / "scripts" / "stats_schema.json"
    return check_unregistered_schema_entries(
        schema_path, schema_path.read_text(),
        registered_metric_names(src_files))


# --- AL003: CHECK/DCHECK side effects ---------------------------------------

CHECK_CALL_RE = re.compile(
    r"\b(D?CHECK(_EQ|_NE|_LT|_LE|_GT|_GE|_OK)?)\s*\(")
# Mutating member calls we can name statically.  Anything matching
# `.name(` / `->name(` with one of these names inside a CHECK is flagged.
MUTATING_METHODS = {
    "push_back", "pop_back", "push", "pop", "insert", "emplace",
    "emplace_back", "erase", "clear", "reset", "release", "assign",
    "swap", "resize", "swap_remove", "Add", "Increment", "Record",
    "Set", "Flush", "Next", "NextBlock", "Consume", "Take",
}
# `=` that is not part of ==/!=/<=/>=/compound-assign or a [=] capture.
ASSIGN_RE = re.compile(r"(?<![=!<>+\-*/%&|^\[])=(?![=\]])")
INCDEC_RE = re.compile(r"\+\+|--")


def _check_argument_spans(code_text: str):
    """Yields (offset, arg_text) for every CHECK/DCHECK argument list."""
    for m in CHECK_CALL_RE.finditer(code_text):
        depth = 0
        start = m.end() - 1
        for j in range(start, min(len(code_text), start + 4000)):
            c = code_text[j]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    yield m.start(), code_text[start + 1:j]
                    break


def check_side_effects(sf: SourceFile) -> list[Finding]:
    findings = []
    code_text = "\n".join(sf.code)
    for offset, arg in _check_argument_spans(code_text):
        line = code_text.count("\n", 0, offset) + 1
        if suppressed(sf, line - 1, "AL003"):
            continue
        if INCDEC_RE.search(arg):
            findings.append(Finding(
                sf.path, line, "AL003", "check-side-effect",
                "++/-- inside CHECK/DCHECK (operands are not evaluated in "
                "Release DCHECKs)"))
            continue
        if ASSIGN_RE.search(arg):
            findings.append(Finding(
                sf.path, line, "AL003", "check-side-effect",
                "assignment inside CHECK/DCHECK"))
            continue
        for call in re.finditer(r"(?:\.|->)\s*(\w+)\s*\(", arg):
            if call.group(1) in MUTATING_METHODS:
                findings.append(Finding(
                    sf.path, line, "AL003", "check-side-effect",
                    f"call to mutating method '{call.group(1)}' inside "
                    "CHECK/DCHECK"))
                break
    return findings


# --- AL004: raw sync primitives ---------------------------------------------

RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|lock_guard|condition_variable)\b")
SYNC_EXEMPT = {"src/util/sync.h"}


def check_raw_sync(sf: SourceFile) -> list[Finding]:
    rel = sf.path.relative_to(REPO).as_posix()
    if rel in SYNC_EXEMPT:
        return []
    findings = []
    for i, code in enumerate(sf.code):
        m = RAW_SYNC_RE.search(code)
        if not m:
            continue
        if suppressed(sf, i, "AL004"):
            continue
        findings.append(Finding(
            sf.path, i + 1, "AL004", "raw-sync-primitive",
            f"raw std::{m.group(1)}; use the annotated wrappers in "
            "util/sync.h"))
    return findings


# --- AL005: (void) discard justification ------------------------------------

VOID_DISCARD_RE = re.compile(r"^\s*\(void\)")


def _void_discard_lines(sf: SourceFile):
    """Yields (index, justification) for statement-level (void) discards."""
    for i, code in enumerate(sf.code):
        if not VOID_DISCARD_RE.match(code):
            continue
        # Skip continuations: `EXPECT_DEATH(\n    (void)f(), ...)`.
        prev = sf.code[i - 1].rstrip() if i > 0 else ""
        if prev.endswith(("(", ",")):
            continue
        justification = sf.comments[i].strip()
        yield i, justification


def check_void_discards(sf: SourceFile) -> list[Finding]:
    findings = []
    for i, justification in _void_discard_lines(sf):
        if suppressed(sf, i, "AL005"):
            continue
        if not justification:
            findings.append(Finding(
                sf.path, i + 1, "AL005", "void-discard",
                "(void) discard without a trailing `// <why>` justification"))
    return findings


# --- AL006: bare assert ------------------------------------------------------

BARE_ASSERT_RE = re.compile(r"(?<![_\w])assert\s*\(")


def check_bare_assert(sf: SourceFile) -> list[Finding]:
    findings = []
    for i, code in enumerate(sf.code):
        # static_assert is fine; blank it before searching.
        m = BARE_ASSERT_RE.search(code.replace("static_assert", "STATIC_AST"))
        if not m:
            continue
        if suppressed(sf, i, "AL006"):
            continue
        findings.append(Finding(
            sf.path, i + 1, "AL006", "bare-assert",
            "bare assert(); use CHECK (always-on) or DCHECK (debug-only)"))
    return findings


# --- AL007: header self-containment ------------------------------------------

def _compile_header_alone(compiler: str, header: pathlib.Path) -> str:
    """Syntax-checks a TU holding only `header`; returns stderr on failure."""
    rel = header.relative_to(REPO / "src").as_posix()
    with tempfile.NamedTemporaryFile(
            mode="w", suffix=".cc", prefix="hdr_check_", delete=False) as tu:
        tu.write(f'#include "{rel}"\n')
        tu_path = tu.name
    try:
        proc = subprocess.run(
            [compiler, "-std=c++20", "-fsyntax-only", "-Wall", "-Wextra",
             f"-I{REPO / 'src'}", "-x", "c++", tu_path],
            capture_output=True, text=True)
        return "" if proc.returncode == 0 else proc.stderr
    finally:
        pathlib.Path(tu_path).unlink(missing_ok=True)


def check_headers_self_contained(compiler: str = "g++",
                                 jobs: int | None = None) -> list[Finding]:
    """AL007: every src/**/*.h compiles in isolation.

    A header that passes can be included first from any file, so
    include-order coupling cannot creep in.  Compiles fan out across all
    cores by default (each worker shells out to the compiler, so threads
    are enough); findings stay in sorted-header order regardless of which
    compile finishes first.
    """
    if jobs is None:
        jobs = os.cpu_count() or 1
    if shutil.which(compiler) is None:
        print(f"error: AL007 needs a C++ compiler; {compiler!r} not found "
              "(use --skip via lint_all.sh, or install one)", file=sys.stderr)
        sys.exit(2)
    headers = sorted((REPO / "src").rglob("*.h"))
    if not headers:
        print("error: no headers found under src/", file=sys.stderr)
        sys.exit(2)
    findings = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        for header, err in zip(
                headers,
                pool.map(lambda h: _compile_header_alone(compiler, h),
                         headers)):
            if err:
                first = err.strip().splitlines()[0] if err.strip() else ""
                findings.append(Finding(
                    header, 1, "AL007", "header-self-contained",
                    f"header does not compile in isolation: {first}"))
    return findings


# --- AL009–AL012 shared machinery: deterministic-module scope ----------------
#
# The bit-identical guarantees (streamed integration,
# degradation equivalence) are carried by src/core, src/cube and src/index;
# those directories are the "deterministic modules" the next four checks
# police.  Fixtures opt in so the self-test can exercise them.

DETERMINISTIC_PREFIXES = ("src/core/", "src/cube/", "src/index/")


def _in_deterministic_scope(sf: SourceFile) -> bool:
    rel = sf.path.relative_to(REPO).as_posix()
    return rel.startswith(DETERMINISTIC_PREFIXES) or \
        rel.startswith("scripts/lint_fixtures/")


def _companion_code(sf: SourceFile) -> str:
    """Code view of foo.h when linting foo.cc (member decls live there)."""
    if sf.path.suffix == ".cc":
        header = sf.path.with_suffix(".h")
        if header.exists():
            code, _ = strip_comments(header.read_text(encoding="utf-8"))
            return "\n".join(code)
    return ""


UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")


def _match_angle(text: str, open_idx: int) -> int | None:
    """Index just past the `>` matching the `<` at open_idx, or None."""
    depth = 0
    for j in range(open_idx, min(len(text), open_idx + 2000)):
        c = text[j]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return j + 1
    return None


def _collect_unordered(code_text: str) -> dict[str, bool]:
    """Names declared with an unordered container type -> is_array.

    Covers direct declarations, `using X = std::unordered_*<...>` aliases and
    variables declared with those aliases (including C arrays of them, e.g.
    `LevelMap levels_[kNumCubeLevels]`).
    """
    names: dict[str, bool] = {}
    aliases: set[str] = set()
    for m in UNORDERED_DECL_RE.finditer(code_text):
        open_idx = code_text.index("<", m.start())
        close = _match_angle(code_text, open_idx)
        if close is None:
            continue
        before = code_text[max(0, m.start() - 80):m.start()]
        alias = re.search(r"\busing\s+(\w+)\s*=\s*$", before)
        if alias:
            aliases.add(alias.group(1))
            continue
        tail = code_text[close:close + 160]
        decl = re.match(r"\s*(?:const\s+)?[&*]?\s*([A-Za-z_]\w*)\s*(\[)?", tail)
        if decl is None:
            continue
        after_name = tail[decl.end(1):].lstrip()
        if after_name.startswith("("):  # function returning the container
            continue
        names[decl.group(1)] = decl.group(2) == "["
    for alias in aliases:
        for decl in re.finditer(
                rf"\b{alias}\b\s*(?:const\s+)?[&*]?\s*([A-Za-z_]\w*)\s*(\[)?",
                code_text):
            names[decl.group(1)] = decl.group(2) == "["
    return names


FOR_RE = re.compile(r"\bfor\s*\(")


def _for_loops(code_text: str):
    """Yields (offset, header_text, body_start, body_end) for every for()."""
    for m in FOR_RE.finditer(code_text):
        start = m.end() - 1
        depth = 0
        header_end = None
        for j in range(start, min(len(code_text), start + 2000)):
            c = code_text[j]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    header_end = j
                    break
        if header_end is None:
            continue
        header = code_text[start + 1:header_end]
        k = header_end + 1
        while k < len(code_text) and code_text[k] in " \t\n":
            k += 1
        if k < len(code_text) and code_text[k] == "{":
            depth = 0
            body_end = k
            for j in range(k, min(len(code_text), k + 40000)):
                c = code_text[j]
                if c == "{":
                    depth += 1
                elif c == "}":
                    depth -= 1
                    if depth == 0:
                        body_end = j
                        break
            yield m.start(), header, k + 1, body_end
        else:
            semi = code_text.find(";", k)
            yield m.start(), header, k, semi if semi != -1 else k


def _range_for_split(header: str) -> tuple[str, str] | None:
    """Splits `decl : expr`; None for a classic three-clause for."""
    depth = 0
    i = 0
    while i < len(header):
        c = header[i]
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        elif c == ":" and depth == 0:
            if i + 1 < len(header) and header[i + 1] == ":":
                i += 2
                continue
            return header[:i], header[i + 1:]
        i += 1
    return None


def _unordered_loops(sf: SourceFile):
    """Yields (line_idx, name, body_start, body_end) for loops whose range is
    an unordered container.

    A range expression `m[k]` over a scalar map is the *mapped value*, not the
    map — skipped; `levels_[i]` over an array of maps IS a map — flagged; the
    array itself (`for (auto& level : levels_)`) iterates in index order —
    skipped.  Classic iterator loops count when the init clause calls
    `.begin()` on an unordered name (so the sort-a-copy fix idiom, which
    calls .begin() outside any for-init, stays clean).
    """
    code_text = "\n".join(sf.code)
    names = _collect_unordered(code_text + "\n" + _companion_code(sf))
    if not names:
        return
    for offset, header, body_start, body_end in _for_loops(code_text):
        line_idx = code_text.count("\n", 0, offset)
        split = _range_for_split(header)
        if split is not None:
            expr = split[1].strip()
            m = re.match(
                r"^[&*]*\s*(?:\w+\s*(?:\.|->)\s*)*([A-Za-z_]\w*)\s*"
                r"(\[[^\]]*\])?\s*$", expr)
            if m is None:
                continue
            name, subscripted = m.group(1), m.group(2) is not None
            if name in names and names[name] == subscripted:
                yield line_idx, name, body_start, body_end
        else:
            init = header.split(";", 1)[0]
            m = re.search(
                r"([A-Za-z_]\w*)\s*(\[[^\]]*\])?\s*(?:\.|->)\s*c?begin\s*\(",
                init)
            if m and m.group(1) in names and \
                    names[m.group(1)] == (m.group(2) is not None):
                yield line_idx, m.group(1), body_start, body_end


# --- AL009: unordered-container iteration in deterministic modules -----------

def check_unordered_iteration(sf: SourceFile) -> list[Finding]:
    if not _in_deterministic_scope(sf):
        return []
    findings = []
    for line_idx, name, _, _ in _unordered_loops(sf):
        if suppressed(sf, line_idx, "AL009"):
            continue
        findings.append(Finding(
            sf.path, line_idx + 1, "AL009", "unordered-iteration",
            f"iteration over unordered container '{name}' in a deterministic "
            "module leaks hash-layout order; iterate a sorted view or prove "
            "order-independence with NOLINT(AL009): <why>"))
    return findings


# --- AL010: nondeterminism sources in deterministic modules ------------------

AL010_PATTERNS = [
    (re.compile(
        r"\bstd::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
        r"\b"),
     "clock read; results must not depend on time — use util/stopwatch.h "
     "for obs-only timing"),
    (re.compile(r"(?<![\w:.])s?rand\s*\("),
     "rand()/srand(); use the seeded util::Rng"),
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device; use the seeded util::Rng"),
    (re.compile(r"\breinterpret_cast\s*<\s*(?:std::)?u?intptr_t\b"),
     "address-as-identity cast; pointer values vary run to run (ASLR)"),
]


def check_nondeterminism_sources(sf: SourceFile) -> list[Finding]:
    if not _in_deterministic_scope(sf):
        return []
    findings = []
    for i, code in enumerate(sf.code):
        for pattern, why in AL010_PATTERNS:
            if not pattern.search(code):
                continue
            if suppressed(sf, i, "AL010"):
                continue
            findings.append(Finding(
                sf.path, i + 1, "AL010", "nondeterminism-source", why))
            break
    return findings


# --- AL011: GUARDED_BY coverage for Mutex-owning classes ---------------------

CLASS_HEAD_RE = re.compile(r"\b(?:class|struct)\s+([A-Za-z_]\w*)")
MEMBER_SKIP_RE = re.compile(
    r"^\s*(?:using|typedef|friend|static|constexpr|enum|class|struct|"
    r"template)\b")
GUARDED_ANNOT_RE = re.compile(r"\bATYPICAL_(?:PT_)?GUARDED_BY\s*\(")
MUTEX_OWNER_RE = re.compile(r"^(?:mutable\s+)?(?:util::)?Mutex\s+\w+$")


def _class_spans(code_text: str):
    """Yields (class_name, body_start, body_end) for class/struct bodies."""
    for m in CLASS_HEAD_RE.finditer(code_text):
        if re.search(r"\benum\s+$", code_text[max(0, m.start() - 16):m.start()]):
            continue
        body_open = None
        angle = 0
        j = m.end()
        while j < len(code_text):
            c = code_text[j]
            if c == "<":
                angle += 1
            elif c == ">":
                angle = max(0, angle - 1)
            elif angle == 0 and c == "{":
                body_open = j
                break
            elif angle == 0 and c in ";=,)":
                break  # forward decl / template parameter / variable
            j += 1
        if body_open is None:
            continue
        depth = 0
        for k in range(body_open, len(code_text)):
            c = code_text[k]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    yield m.group(1), body_open + 1, k
                    break


def _member_statements(code_text: str, start: int, end: int):
    """Yields (statement_text, start_offset) for depth-1 class members.

    Function definitions are discarded (their closing `}` is not followed by
    `;`); braced initializers and nested type definitions survive to the
    terminating `;` and are filtered by the caller.
    """
    depth = 1
    buf: list[str] = []
    buf_start: int | None = None
    i = start
    while i < end:
        c = code_text[i]
        if c == "{":
            depth += 1
            buf.append(c)
        elif c == "}":
            depth -= 1
            if depth == 1:
                j = i + 1
                while j < end and code_text[j] in " \t\n":
                    j += 1
                if j < end and code_text[j] == ";":
                    buf.append(c)  # braced init / nested type; keep going
                else:
                    buf, buf_start = [], None  # function definition body
            elif depth >= 1:
                buf.append(c)
        elif c == ";" and depth == 1:
            stmt = "".join(buf).strip()
            if stmt and buf_start is not None:
                yield stmt, buf_start
            buf, buf_start = [], None
        elif c == ":" and depth == 1 and \
                "".join(buf).strip() in ("public", "private", "protected"):
            buf, buf_start = [], None
        else:
            if buf_start is None and not c.isspace():
                buf_start = i
            buf.append(c)
        i += 1


def check_guarded_by(sf: SourceFile) -> list[Finding]:
    rel = sf.path.relative_to(REPO).as_posix()
    if not (rel.startswith("src/") or rel.startswith("scripts/lint_fixtures/")):
        return []
    findings = []
    code_text = "\n".join(sf.code)
    for cls, start, end in _class_spans(code_text):
        statements = list(_member_statements(code_text, start, end))
        if not any(MUTEX_OWNER_RE.match(s) for s, _ in statements):
            continue  # class does not own a util::Mutex
        for stmt, offset in statements:
            if MEMBER_SKIP_RE.match(stmt):
                continue
            if re.search(r"\b(?:Mutex|MutexLock|CondVar)\b", stmt):
                continue  # the lock itself / its companions
            if "std::atomic" in stmt or stmt.startswith("const "):
                continue  # atomics and immutable members are exempt
            if GUARDED_ANNOT_RE.search(stmt):
                continue
            bare = re.sub(r"\bATYPICAL_\w+\s*\([^)]*\)", "", stmt)
            bare = re.sub(r"\bATYPICAL_\w+\b", "", bare)
            if "(" in bare:
                continue  # function declaration or function-typed member
            line_idx = code_text.count("\n", 0, offset)
            if suppressed(sf, line_idx, "AL011"):
                continue
            head = re.split(r"[={]", bare)[0]
            tokens = re.findall(r"[A-Za-z_]\w*", head)
            field = tokens[-1] if tokens else stmt
            findings.append(Finding(
                sf.path, line_idx + 1, "AL011", "guarded-by-coverage",
                f"class '{cls}' owns a util::Mutex but field '{field}' has "
                "no ATYPICAL_GUARDED_BY/ATYPICAL_PT_GUARDED_BY annotation "
                "(justify unshared fields with NOLINT(AL011): <why>)"))
    return findings


# --- AL012: float accumulation over unordered iteration ----------------------

FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+([A-Za-z_]\w*)")
ACCUM_RE = re.compile(r"[+\-]=")
LOOP_LOCAL_DECL_TEMPLATE = (
    r"(?:^|[;{{}}(\s])(?:const\s+)?(?:auto|[A-Za-z_][\w:]*(?:<[^;{{]*?>)?)"
    r"\s*[&*]?\s+{base}\s*[=({{\[]")


def check_float_accumulation(sf: SourceFile) -> list[Finding]:
    if not _in_deterministic_scope(sf):
        return []
    findings = []
    code_text = "\n".join(sf.code)
    float_names = set(FLOAT_DECL_RE.findall(
        code_text + "\n" + _companion_code(sf)))
    if not float_names:
        return []
    for _, name, body_start, body_end in _unordered_loops(sf):
        body = code_text[body_start:body_end]
        for acc in ACCUM_RE.finditer(body):
            before = body[:acc.start()]
            stmt_start = max(before.rfind(";"), before.rfind("{"),
                             before.rfind("}")) + 1
            lhs = before[stmt_start:]
            idents = re.findall(r"[A-Za-z_]\w*", lhs)
            if not idents or not (set(idents) & float_names):
                continue
            if re.search(LOOP_LOCAL_DECL_TEMPLATE.format(
                    base=re.escape(idents[0])), before):
                continue  # accumulator lives inside the loop: order-free
            line_idx = code_text.count("\n", 0, body_start + acc.start())
            if suppressed(sf, line_idx, "AL012"):
                continue
            findings.append(Finding(
                sf.path, line_idx + 1, "AL012", "float-accumulation",
                f"float accumulation into '{'.'.join(idents)}' while "
                f"iterating unordered container '{name}': float addition "
                "does not commute, so hash order perturbs the sum (1e-6 "
                "similarity-slack contract); reduce over a sorted view"))
    return findings


TEXT_CHECKS = [
    check_nolint_justification,
    check_metric_names,
    check_resilience_metrics,
    check_side_effects,
    check_raw_sync,
    check_void_discards,
    check_bare_assert,
    check_unordered_iteration,
    check_nondeterminism_sources,
    check_guarded_by,
    check_float_accumulation,
]


def lint_paths(paths: list[pathlib.Path]) -> list[Finding]:
    findings: list[Finding] = []
    files: list[pathlib.Path] = []
    for p in paths:
        if p.is_dir():
            for glob in SOURCE_GLOBS:
                files.extend(sorted(p.rglob(glob)))
        elif p.is_file():
            files.append(p)
        else:
            print(f"error: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    for f in files:
        sf = load(f)
        for check in TEXT_CHECKS:
            findings.extend(check(sf))
    return findings


def list_discards(paths: list[pathlib.Path]) -> int:
    """Prints the audit list of every statement-level (void) discard."""
    count = 0
    files: list[pathlib.Path] = []
    for p in paths:
        if p.is_dir():
            for glob in SOURCE_GLOBS:
                files.extend(sorted(p.rglob(glob)))
        else:
            files.append(p)
    for f in files:
        sf = load(f)
        for i, justification in _void_discard_lines(sf):
            rel = f.relative_to(REPO)
            print(f"{rel}:{i + 1}: {justification or '(unjustified)'}")
            count += 1
    print(f"{count} (void) discard(s)")
    return 0


# --- self-test over fixture files -------------------------------------------

EXPECT_RE = re.compile(r"EXPECT-LINT(?P<next>-NEXT)?:\s*(?P<ids>AL\d{3}(?:\s*,\s*AL\d{3})*)")


def self_test() -> int:
    """Runs the text checks over scripts/lint_fixtures/*.

    Each fixture declares its expected findings with `// EXPECT-LINT: ALxxx`
    on the line the finding must anchor to, or `// EXPECT-LINT-NEXT: ALxxx`
    on the line above (for checks where a trailing comment would change the
    verdict, e.g. AL005).  A fixture with no EXPECT-LINT lines must lint
    clean.  The stats schema must also parse (AL002's contract is alignment
    with it).
    """
    fixture_dir = REPO / "scripts" / "lint_fixtures"
    fixtures = sorted(fixture_dir.glob("*.cc*"))
    if not fixtures:
        print(f"error: no fixtures in {fixture_dir}", file=sys.stderr)
        return 2
    schema = json.loads((REPO / "scripts" / "stats_schema.json").read_text())
    for key in ("counters", "gauges", "histograms"):
        if key not in schema.get("properties", {}):
            print(f"error: stats_schema.json lost its '{key}' map",
                  file=sys.stderr)
            return 2
    if not schema.get("resilienceMetrics"):
        print("error: stats_schema.json lost its 'resilienceMetrics' list "
              "(AL008's registry)", file=sys.stderr)
        return 2
    if not schema.get("servingMetrics"):
        print("error: stats_schema.json lost its 'servingMetrics' list "
              "(AL008's serving registry)", file=sys.stderr)
        return 2
    failures = []
    for fixture in fixtures:
        sf = load(fixture)
        got = {}
        for check in TEXT_CHECKS:
            for finding in check(sf):
                got.setdefault(finding.line, set()).add(finding.check)
        want = {}
        for i, raw in enumerate(sf.raw):
            for m in EXPECT_RE.finditer(raw):
                line = i + 2 if m.group("next") else i + 1
                for check_id in re.findall(r"AL\d{3}", m.group("ids")):
                    want.setdefault(line, set()).add(check_id)
        if got != want:
            failures.append((fixture, want, got))
    # AL008's registry direction: a schema listing one name that the clean
    # fixture never registers must yield exactly that one finding.
    probe_path = REPO / "scripts" / "stats_schema.json"
    probe_text = json.dumps({
        "servingMetrics": ["serve.requests", "serve.never_registered"],
        "resilienceMetrics": ["fault.torn_writes", "degradation.records_lost"],
    }, indent=2)
    probe = check_unregistered_schema_entries(
        probe_path, probe_text,
        registered_metric_names([load(fixture_dir / "clean.cc")]))
    if [(f.check, f.line) for f in probe] != [("AL008", 4)] or \
            "serve.never_registered" not in probe[0].message:
        print("SELF-TEST FAIL AL008 registry direction: expected one finding "
              "for 'serve.never_registered' on line 4, got "
              f"{[f.render() for f in probe]}", file=sys.stderr)
        return 1
    if failures:
        for fixture, want, got in failures:
            rel = fixture.relative_to(REPO)
            print(f"SELF-TEST FAIL {rel}", file=sys.stderr)
            for line in sorted(set(want) | set(got)):
                w = ",".join(sorted(want.get(line, ()))) or "-"
                g = ",".join(sorted(got.get(line, ()))) or "-"
                if want.get(line) != got.get(line):
                    print(f"  line {line}: expected [{w}] got [{g}]",
                          file=sys.stderr)
        return 1
    print(f"self-test ok: {len(fixtures)} fixtures")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", default=None)
    parser.add_argument("--with-includes", action="store_true",
                        help="also run AL007 (needs a C++ compiler)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="parallel AL007 header compiles "
                             "(default: all cores)")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--list-discards", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    paths = [pathlib.Path(p) if pathlib.Path(p).is_absolute()
             else REPO / p for p in (args.paths or DEFAULT_DIRS)]

    if args.list_discards:
        return list_discards(paths)

    findings = lint_paths(paths)
    if REPO / "src" in paths:
        findings.extend(check_schema_registries_tree())
    if args.with_includes:
        findings.extend(check_headers_self_contained(jobs=args.jobs))
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"\n{len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("atypical_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
