#!/usr/bin/env python3
r"""The repo benchmark: one command per workload, run from the repo root.

    python3 perfbench/run.py --workload ingest_live --seed 1 \
                             --seconds 30 --trace 0

Builds perfbench/ (the atypical library from src/ plus the pipeline_bench
program) into .bench_build/perfbench, runs one workload in one process with
one thread, checks the answers and prints, as the last line of stdout, one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list; the lines before it give the run context (seed,
hw_threads, op and sample counts) and the metrics that are not gated.

The answer digest of each (scale, workload) is stored in expected.json for
seed 1 and the held-out seed 2; a mismatch fails the run (exit code 1).
Other seeds are checked for determinism across passes and against the
repo's bit-identity contracts (streamed == batch, served == engine).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "pipeline_bench")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"

# What each op is, for the context lines.
OPS = {
    "ingest_live": "one day cycle: guard -> integrator -> Finalize -> "
                   "InstallDay -> cube merge -> PublishSnapshot -> rolling "
                   "7-day Gui query",
    "query_local": "one uncached query, 1-7 days, 20-50% of the area, "
                   "All/Pru/Gui in rotation",
    "query_wide": "one uncached whole-area Gui query over 14-28 days",
}
THROUGHPUT_OF = {
    "ingest_live": "feed records per second of the live phase",
    "query_local": "queries per second",
    "query_wide": "queries per second",
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("small", "tiny"), default="small")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    expected = load_json(os.path.join(HERE, "expected.json"))
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale]
    if args.trace:
        trace_out = os.path.join(
            BUILD_DIR, "trace-%s-%s-seed%d.jsonl" % (args.scale, args.workload,
                                                     args.seed))
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("pipeline_bench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("pipeline_bench exited with %d" % proc.returncode)
    report = json.loads(lines[-1])

    problems = list(report["problems"])
    want = expected.get(args.scale, {}).get(args.workload, {}).get(
        str(args.seed))
    if want is not None and want != report["digest"]:
        problems.append("answer digest %s != expected %s"
                        % (report["digest"], want))

    e2e = report["e2e"]
    samples = report["samples"]
    print("workload=%s seed=%d scale=%s hw_threads=%d trace=%d ops=%d "
          "passes=%d" % (args.workload, args.seed, args.scale,
                         report["hw_threads"], args.trace,
                         report["attempted"], samples["passes"]))
    print("op: " + OPS[args.workload])
    print("throughput: " + THROUGHPUT_OF[args.workload])
    busy = sorted(report["pass_busy_s"])
    print("busy seconds per pass: min %.4g median %.4g max %.4g (every pass "
          "does the same work; the spread is the host's)"
          % (busy[0], busy[len(busy) // 2], busy[-1]))
    print("latency samples=%d beyond p50=%d p95=%d p99=%d; setup samples=%d"
          % (samples["latency"], samples["beyond_p50"], samples["beyond_p95"],
             samples["beyond_p99"], samples["setup"]))
    print("p99_ms %.6g ms (%d samples beyond it%s)"
          % (e2e["p99_ms"], samples["beyond_p99"],
             "" if samples["beyond_p99"] >= 10 else
             "; fewer than 10, so not a tail to rely on"))
    print("error_rate %.6g fraction (%d failed of %d attempted)"
          % (e2e["error_rate"], report["failed"], report["attempted"]))
    print("digest %s (%s)" % (report["digest"],
                              "no stored digest for this seed"
                              if want is None else "expected " + want))
    for problem in problems:
        print("CHECK FAILED: " + problem, file=sys.stderr)

    metrics = {}
    if args.trace:
        source, listed = report["layers"], spec["per_layer"]
    else:
        source, listed = e2e, spec["end_to_end"]
    for m in listed:
        metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
        print("%-32s %.6g %s" % (m["name"], source[m["name"]], m["unit"]))
    print(json.dumps({"correct": not problems,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
