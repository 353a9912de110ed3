#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json twice untraced and twice traced on the
tiny deployment (seed 1) and checks that

  * each run exits 0 and its last line is the result object, with correct
    true, no failed op and every listed metric, by name, with its unit;
  * the context lines name p99_ms and error_rate with their units and the
    answer digest matches the stored one;
  * the exact counts (per-layer metrics in count or fraction units, apart
    from the tracing overhead, which is a ratio of times) repeat exactly
    across the two traced runs, and the digest across all.

Exits 0 when every check holds.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_UNITS = {"count", "fraction"}


def is_count(metric):
    return (metric["unit"] in COUNT_UNITS
            and not metric["name"].startswith("trace."))


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in [w["name"] for w in spec["workloads"]]:
        errors_before = len(errors)
        digests = set()
        counts = []
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            for attempt in range(2):
                tag = "%s trace=%d run %d" % (workload, trace, attempt)
                code, lines = run(workload, trace)
                if code != 0 or not lines:
                    errors.append("%s: exit code %d" % (tag, code))
                    continue
                result = json.loads(lines[-1])
                context = "\n".join(lines[:-1])
                if sorted(result) != ["attempted", "correct", "failed",
                                      "metrics"]:
                    errors.append("%s: result keys %s" % (tag, sorted(result)))
                if not result["correct"] or result["failed"] != 0:
                    errors.append("%s: correct=%s failed=%d"
                                  % (tag, result["correct"], result["failed"]))
                for m in listed:
                    got = result["metrics"].get(m["name"])
                    if got is None or got["unit"] != m["unit"]:
                        errors.append("%s: metric %s missing or not in %s"
                                      % (tag, m["name"], m["unit"]))
                if not re.search(r"^p99_ms \S+ ms ", context, re.M):
                    errors.append("%s: p99_ms with its unit not printed" % tag)
                if not re.search(r"^error_rate 0 fraction", context, re.M):
                    errors.append("%s: error_rate 0 fraction not printed" % tag)
                match = re.search(r"^digest (\w+) \(expected (\w+)\)$",
                                  context, re.M)
                if not match or match.group(1) != match.group(2):
                    errors.append("%s: digest not matched" % tag)
                else:
                    digests.add(match.group(1))
                if trace:
                    counts.append({m["name"]: result["metrics"][m["name"]]
                                   for m in listed
                                   if is_count(m)
                                   and m["name"] in result["metrics"]})
        if len(digests) > 1:
            errors.append("%s: digests differ between runs: %s"
                          % (workload, sorted(digests)))
        if len(counts) == 2 and counts[0] != counts[1]:
            differing = sorted(k for k in counts[0]
                               if counts[0][k] != counts[1].get(k))
            errors.append("%s: counts differ between runs: %s"
                          % (workload, differing))
        print("%s: %s" % (workload, "ok" if len(errors) == errors_before
                                   else "FAILED"))
    for e in errors:
        print("FAIL " + e, file=sys.stderr)
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
