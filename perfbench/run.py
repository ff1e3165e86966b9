#!/usr/bin/env python3
"""Builds and runs the repo benchmark for one workload.

    python3 perfbench/run.py --workload restart --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The C++ benchmark binary (perfbench/src)
is built with CMake into $CARGO_TARGET_DIR (default .bench_build),
together with the library it links from ../src. The binary prints every
value it measured; this script picks out the metrics BENCHMARK.json names
(end_to_end with --trace 0, per_layer with --trace 1), prints the rest on
a diagnostics line, and prints the result as the last line of stdout:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

It exits non-zero, without a result, when the sources or the build are
missing or the binary crashes or times out, and with the result but a
non-zero code when an output check failed.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 160


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("the library sources (CMakeLists.txt, src/) are not in this "
            "checkout")
        return None
    binary_dir = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(binary_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", binary_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", binary_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.call(cmd, cwd=ROOT, stdout=sys.stderr) != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(binary_dir, "perfbench")


def run_binary(cmd):
    """Runs perfbench in its own process group; returns its stdout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        log(f"perfbench exited with code {proc.returncode}")
        return None
    return out


def select(values, specs, required):
    """Picks the named metrics out of perfbench's values."""
    metrics = {}
    ok = True
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        got = values.pop(name, None)
        if got is None:
            if required:
                log(f"perfbench did not report {name}")
                ok = False
                continue
            # A per-layer metric of a layer this workload does not run.
            got = {"value": 0, "unit": unit}
        if got["unit"] != unit:
            log(f"{name}: unit {got['unit']}, BENCHMARK.json says {unit}")
            ok = False
        if required and not (math.isfinite(got["value"]) and got["value"] > 0):
            log(f"{name} = {got['value']}: end-to-end metrics are never 0")
            ok = False
        metrics[name] = {"value": got["value"], "unit": unit}
    return metrics, ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_dir)
    binary = build(build_dir)
    if binary is None:
        return 2

    # Pools and the server socket live in a work directory inside the
    # checkout, passed relative to it so the socket path stays short.
    workdir = os.path.join(build_dir, f"run-{args.workload}-{os.getpid()}")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", os.path.relpath(workdir, ROOT),
           "--trace-out",
           os.path.relpath(os.path.join(trace_dir, f"{args.workload}.csv"),
                           ROOT)]
    try:
        out = run_binary(cmd)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if out is None or not out.strip():
        return 1
    raw = json.loads(out.strip().splitlines()[-1])

    values = raw["values"]
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics, ok = select(values, specs, required=not args.trace)
    correct = bool(raw["correct"]) and ok
    print(json.dumps({"diagnostics": values}))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
