#!/usr/bin/env python3
"""Architecture-conformance check: the src/ #include graph obeys the layer DAG.

Every headline guarantee in this repo (bit-identical streamed integration,
prune-is-a-proof similarity, damaged==clean-restricted degradation) rests on
the core staying deterministic and the layer boundaries staying auditable.
This check makes the architecture mechanical instead of tribal:

  1. `scripts/layering.json` declares the layers (top-level directories of
     src/), their bottom-up tier order, and the exact allowed dependency
     edges.  The checker verifies every allowed edge points to a strictly
     lower tier, so the declared graph is acyclic by construction.
  2. The full `#include "..."` graph of src/ is extracted (comment-aware).
     An include whose first path component is another layer is a cross-layer
     edge; it must be declared in the manifest or grandfathered, per exact
     (file, include) pair, in `scripts/layering_ratchet.json`.
  3. File-level include cycles are rejected outright (no ratchet).
  4. Stale ratchet entries — pairs that no longer occur — are findings too:
     remove them, that is the burn-down.

Usage:
  scripts/check_layering.py                 check src/ against the manifest
  scripts/check_layering.py --self-test     run the fixture suite in
                                            scripts/lint_fixtures/layering/
  scripts/check_layering.py --root DIR --manifest F [--ratchet F]
                                            check an arbitrary tree (the
                                            self-test uses this)
Exit status: 0 clean, 1 findings, 2 usage/environment error.

DESIGN.md §13 documents the layer contract, the ratchet policy, and how to
add a layer.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
SOURCE_GLOBS = ("*.h", "*.cc")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')


def strip_block_comments(text: str) -> str:
    """Blanks /* */ comments so a commented-out #include is not an edge.

    Line comments are handled per line (INCLUDE_RE anchors at line start and
    an #include cannot follow code on the same line, so only block comments
    can hide one mid-line).
    """
    out = []
    i, n = 0, len(text)
    in_block = False
    while i < n:
        if in_block:
            if text.startswith("*/", i):
                in_block = False
                i += 2
                continue
            out.append("\n" if text[i] == "\n" else " ")
            i += 1
        else:
            if text.startswith("/*", i):
                in_block = True
                i += 2
                continue
            if text.startswith("//", i):
                j = text.find("\n", i)
                if j == -1:
                    break
                out.append("\n")
                i = j + 1
                continue
            out.append(text[i])
            i += 1
    return "".join(out)


class Manifest:
    def __init__(self, path: pathlib.Path):
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: cannot load manifest {path}: {e}", file=sys.stderr)
            sys.exit(2)
        self.tier_of: dict[str, int] = {}
        for rank, tier in enumerate(data.get("tiers", [])):
            for layer in tier:
                if layer in self.tier_of:
                    print(f"error: layer {layer!r} listed in two tiers",
                          file=sys.stderr)
                    sys.exit(2)
                self.tier_of[layer] = rank
        self.allowed: dict[str, set[str]] = {
            layer: set(targets)
            for layer, targets in data.get("allowed", {}).items()
        }
        self._validate()

    def _validate(self) -> None:
        """The declared graph must be a DAG: every edge strictly descends."""
        problems = []
        if set(self.allowed) != set(self.tier_of):
            only_allowed = set(self.allowed) - set(self.tier_of)
            only_tiers = set(self.tier_of) - set(self.allowed)
            if only_allowed:
                problems.append(
                    f"layers in 'allowed' but not tiered: {sorted(only_allowed)}")
            if only_tiers:
                problems.append(
                    f"tiered layers missing from 'allowed': {sorted(only_tiers)}")
        for layer, targets in self.allowed.items():
            for target in targets:
                if target not in self.tier_of:
                    problems.append(
                        f"allowed edge {layer} -> {target}: undeclared layer "
                        f"{target!r}")
                    continue
                if layer in self.tier_of and \
                        self.tier_of[target] >= self.tier_of[layer]:
                    problems.append(
                        f"allowed edge {layer} -> {target} does not descend "
                        f"(tier {self.tier_of[layer]} -> "
                        f"{self.tier_of[target]}); the manifest must be a DAG")
        if problems:
            for p in problems:
                print(f"error: manifest: {p}", file=sys.stderr)
            sys.exit(2)


def load_ratchet(path: pathlib.Path | None) -> set[tuple[str, str]]:
    if path is None or not path.exists():
        return set()
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot load ratchet {path}: {e}", file=sys.stderr)
        sys.exit(2)
    pairs = set()
    for entry in data.get("grandfathered", []):
        if "file" not in entry or "include" not in entry:
            print(f"error: ratchet entry missing file/include: {entry}",
                  file=sys.stderr)
            sys.exit(2)
        pairs.add((entry["file"], entry["include"]))
    return pairs


def extract_includes(root: pathlib.Path) -> dict[str, list[tuple[int, str]]]:
    """Returns {root-relative file: [(line, quoted include), ...]}."""
    graph: dict[str, list[tuple[int, str]]] = {}
    files: list[pathlib.Path] = []
    for glob in SOURCE_GLOBS:
        files.extend(root.rglob(glob))
    for f in sorted(files):
        rel = f.relative_to(root).as_posix()
        text = strip_block_comments(f.read_text(encoding="utf-8"))
        incs = []
        for i, line in enumerate(text.split("\n"), start=1):
            m = INCLUDE_RE.match(line)
            if m:
                incs.append((i, m.group(1)))
        graph[rel] = incs
    return graph


def find_file_cycle(graph: dict[str, list[tuple[int, str]]]) -> list[str] | None:
    """Returns one include cycle as a path of files, or None.

    Edges are resolved root-relative: `a/x.cc` including "b/y.h" points at
    `b/y.h` when that file exists in the tree (quoted includes are
    root-relative by project convention).
    """
    adjacency = {
        f: [inc for _, inc in incs if inc in graph]
        for f, incs in graph.items()
    }
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(graph, WHITE)
    parent: dict[str, str] = {}
    for start in sorted(graph):
        if color[start] != WHITE:
            continue
        stack = [(start, iter(adjacency[start]))]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:  # back edge: reconstruct the loop
                    cycle = [nxt, node]
                    walk = node
                    while walk != nxt:
                        walk = parent[walk]
                        cycle.append(walk)
                    cycle.reverse()
                    return cycle
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, iter(adjacency[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def check_tree(root: pathlib.Path, manifest: Manifest,
               ratchet: set[tuple[str, str]]) -> list[str]:
    """Returns rendered findings (empty == conformant)."""
    findings: list[str] = []
    graph = extract_includes(root)
    if not graph:
        print(f"error: no sources under {root}", file=sys.stderr)
        sys.exit(2)

    cycle = find_file_cycle(graph)
    if cycle is not None:
        findings.append(
            "include cycle (never ratchetable): " + " -> ".join(cycle))

    used_ratchet: set[tuple[str, str]] = set()
    for rel in sorted(graph):
        layer = rel.split("/", 1)[0]
        if "/" not in rel or layer not in manifest.tier_of:
            findings.append(
                f"{rel}:1: file is not in a declared layer (top-level "
                f"directory {layer!r} missing from layering.json tiers)")
            continue
        for line, inc in graph[rel]:
            target = inc.split("/", 1)[0]
            if "/" not in inc or target not in manifest.tier_of:
                findings.append(
                    f"{rel}:{line}: include \"{inc}\" is not in a declared "
                    f"layer (add the layer to layering.json or fix the path)")
                continue
            if target == layer or target in manifest.allowed.get(layer, set()):
                continue
            if (rel, inc) in ratchet:
                used_ratchet.add((rel, inc))
                continue
            findings.append(
                f"{rel}:{line}: undeclared cross-layer include \"{inc}\" "
                f"({layer} -> {target} is not in layering.json 'allowed'; "
                f"fix the layering — the ratchet only grandfathers "
                f"pre-manifest edges)")
    for rel, inc in sorted(ratchet - used_ratchet):
        findings.append(
            f"{rel}: stale ratchet entry for \"{inc}\" (edge no longer "
            f"exists — delete it from layering_ratchet.json; that is the "
            f"burn-down)")
    return findings


# --- self-test over fixture trees -------------------------------------------

def self_test() -> int:
    """Runs the checker over scripts/lint_fixtures/layering/<case>/.

    Each case directory holds `layering.json`, an optional `ratchet.json`, a
    `src/` tree, and an `EXPECT` file: first line `clean` or `findings`,
    remaining lines substrings that must each appear in some finding (and
    for `clean`, there must be none at all).
    """
    fixture_root = REPO / "scripts" / "lint_fixtures" / "layering"
    cases = sorted(p for p in fixture_root.iterdir() if p.is_dir())
    if not cases:
        print(f"error: no fixture cases under {fixture_root}", file=sys.stderr)
        return 2
    failures = []
    for case in cases:
        manifest = Manifest(case / "layering.json")
        ratchet_path = case / "ratchet.json"
        ratchet = load_ratchet(ratchet_path if ratchet_path.exists() else None)
        findings = check_tree(case / "src", manifest, ratchet)
        expect_lines = (case / "EXPECT").read_text().strip().split("\n")
        verdict, needles = expect_lines[0].strip(), expect_lines[1:]
        if verdict == "clean":
            if findings:
                failures.append((case.name, "expected clean, got:", findings))
            continue
        if not findings:
            failures.append((case.name, "expected findings, got none", []))
            continue
        for needle in needles:
            if not any(needle in f for f in findings):
                failures.append(
                    (case.name, f"no finding contains {needle!r}:", findings))
    if failures:
        for name, why, findings in failures:
            print(f"SELF-TEST FAIL {name}: {why}", file=sys.stderr)
            for f in findings:
                print(f"  {f}", file=sys.stderr)
        return 1
    print(f"self-test ok: {len(cases)} fixture trees")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=str(REPO / "src"))
    parser.add_argument("--manifest", default=str(REPO / "scripts" /
                                                  "layering.json"))
    parser.add_argument("--ratchet", default=str(REPO / "scripts" /
                                                 "layering_ratchet.json"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = pathlib.Path(args.root)
    if not root.is_dir():
        print(f"error: no such directory: {root}", file=sys.stderr)
        return 2
    manifest = Manifest(pathlib.Path(args.manifest))
    ratchet = load_ratchet(pathlib.Path(args.ratchet))
    findings = check_tree(root, manifest, ratchet)
    for f in findings:
        print(f)
    if findings:
        print(f"\n{len(findings)} layering finding(s)", file=sys.stderr)
        return 1
    grandfathered = len(ratchet)
    print(f"check_layering: conformant ({grandfathered} grandfathered "
          f"edge(s) remaining in the ratchet)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
