#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Builds the eventnet library and the e2ebench binary from source (into
.bench_build/e2ebench under the checkout root), runs one workload, and
passes its output through. The last line of standard output is
the result object {"correct", "attempted", "failed", "metrics"}.

    python3 e2ebench/run.py --workload update_storm|serve \
        --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test    # tests of the bench arithmetic

Exits non-zero, printing no result, when the build fails, the binary
fails or overruns, or its result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("update_storm", "serve")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(targets):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        subprocess.run(cfg, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
                   targets, check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(res))
    if not isinstance(res["correct"], bool):
        raise ValueError("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or res[k] < 0:
            raise ValueError("%s is not a count" % k)
    if res["attempted"] < 1:
        raise ValueError("nothing attempted")
    want = expected_metrics(trace)
    if sorted(res["metrics"]) != sorted(want):
        raise ValueError("metrics %s differ from BENCHMARK.json's %s" %
                         (sorted(res["metrics"]), sorted(want)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        ap.error("--workload is required")

    try:
        t0 = time.monotonic()
        build(["e2ebench_test"] if a.self_test else ["e2ebench"])
        log("build took %.1f s" % (time.monotonic() - t0))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log("build failed: %s" % e)
        return 1

    if a.self_test:
        return subprocess.run([os.path.join(BUILD, "e2ebench_test")]).returncode

    cmd = [os.path.join(BUILD, "e2ebench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", repr(a.seconds),
           "--trace", str(a.trace)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("e2ebench overran %d s" % RUN_TIMEOUT_S)
        return 1
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        log("e2ebench exited %d" % p.returncode)
        return 1
    try:
        check_result(lines[-1], a.trace == 1)
    except (OSError, ValueError, KeyError, TypeError) as e:
        log("bad result: %s" % e)
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
