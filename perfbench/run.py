#!/usr/bin/env python3
"""End-to-end RCA benchmark: build the harness from source, run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper-analyze --seed 2019 \
        --seconds 15 --trace 0

builds perfbench (CMake, Release, into .bench_build/perfbench) from the
repository's src/ tree and runs the workload. The last line of standard
output is the result document:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). Workloads: paper-analyze, scenario-runtime,
resident-query (see perfbench/workloads.json).

    python3 perfbench/run.py --smoke

is the benchmark's own test: it runs all three workloads at reduced size,
traced and untraced, and checks that each is correct and reports exactly
the metrics and units BENCHMARK.json lists. Exits non-zero otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("paper-analyze", "scenario-runtime", "resident-query")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; build output goes to stderr."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise RuntimeError("no program sources (src/CMakeLists.txt) here; "
                           "run from the repository root")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                    "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def run(args):
    """Runs the harness binary; returns (exit code, stdout text)."""
    proc = subprocess.run([BINARY, "--work-dir", WORK_DIR] + args,
                          stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def smoke():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    failures = []
    for workload in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            rc, out = run(["--workload", workload, "--smoke", "--seconds",
                           "1", "--trace", trace])
            name = "%s trace=%s" % (workload, trace)
            before = len(failures)
            if rc != 0 or not out.strip():
                failures.append("%s: exit %d" % (name, rc))
                continue
            doc = json.loads(out.strip().splitlines()[-1])
            if not doc["correct"] or doc["failed"] or doc["attempted"] < 1:
                failures.append("%s: incorrect result %s" % (
                    name, {k: doc[k] for k in ("correct", "attempted",
                                               "failed")}))
            want = [(m["name"], m["unit"]) for m in bench[key]]
            got = [(n, m["unit"]) for n, m in doc["metrics"].items()]
            if got != want:
                failures.append("%s: metrics differ from BENCHMARK.json %s"
                                % (name, key))
            log("smoke %s: %s" % (name, "ok" if len(failures) == before
                                   else "FAILED"))
    for f in failures:
        log("FAILED " + f)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-size self-test of all three workloads")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    try:
        build()
    except (RuntimeError, subprocess.SubprocessError, OSError) as e:
        log("build failed: %s" % e)
        return 2
    if args.smoke:
        return smoke()

    try:
        rc, out = run(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace",
                       args.trace])
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
        return 3
    if rc != 0:
        log("%s exited with %d" % (args.workload, rc))
        return rc
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
