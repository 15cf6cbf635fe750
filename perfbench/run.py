#!/usr/bin/env python3
"""Build the receive-path benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bench.exe with dune
into .bench_build/, runs it, and passes its report through.  The last
line of standard output is the benchmark's JSON result: the end-to-end
metrics of BENCHMARK.json with --trace 0, the per-layer metrics with
--trace 1.  The traced run also writes its spans to
.bench_build/perfbench-spans/<workload>-<seed>.jsonl.  Exits non-zero,
printing no result, when the build fails, the benchmark fails, or its
metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ["fresh-bulk", "frag-disorder", "reoffer-zipf", "transfer-lossy"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.exists(os.path.join(ROOT, EXE)):
        sys.stderr.write(done.stdout[-4000:])
        fail("build failed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    want = expected_metrics(a.trace)
    build()
    cmd = [os.path.join(ROOT, EXE), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        spans_dir = os.path.join(BUILD_DIR, "perfbench-spans")
        os.makedirs(os.path.join(ROOT, spans_dir), exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, "%s-%d.jsonl" % (a.workload, a.seed))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write("\n".join(lines[:-1]) + "\n" + done.stderr[-4000:])
        fail("benchmark exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
        fail("benchmark printed no result")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stderr.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s, units %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)),
            sorted(k for k in got if k in want and got[k] != want[k])))
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)


if __name__ == "__main__":
    main()
