#!/usr/bin/env python3
"""Builds the ndpgen benchmark runner from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The runner is built with CMake into
$CARGO_TARGET_DIR (default .bench_build) the first time. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics; ndpbench reports 0 for the ones a
workload declares it never exercises, and a metric it does not report at
all makes the run incorrect. The line before it records the environment of the run: nproc,
the CPU time stolen by the hypervisor during the run (from /proc/stat),
the compiler and the build type. The full report of the run, with every
sample, is written to <build dir>/results/.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(out_dir):
    """Configures once, then lets the build tool decide what is stale."""
    cmake_dir = os.path.join(out_dir, "perfbench")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", cmake_dir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            fail("cmake configure failed")
    command = ["cmake", "--build", cmake_dir, "-j", str(min(4, nproc()))]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    binary = os.path.join(cmake_dir, "ndpbench")
    if not os.path.exists(binary):
        fail(f"{binary} missing after the build")
    return binary


def steal_ticks():
    """Cumulative steal time over all CPUs, in clock ticks."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0
    except OSError:
        return 0


def load_catalog():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        fail(f"cannot read {path}: {error}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (not for measurements)")
    args = parser.parse_args()

    catalog = load_catalog()
    out_dir = build_dir()
    binary = build(out_dir)
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}"
        + ("-tiny" if args.tiny else ""))

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", stem + ".spans.jsonl"]
    if args.tiny:
        command.append("--tiny")
    steal_before = steal_ticks()
    started = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        fail(f"ndpbench exited with {proc.returncode}")
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail("ndpbench printed no result")

    env = {
        "nproc": nproc(),
        "pe_threads": report["pe_threads"],
        "steal_s": (steal_ticks() - steal_before) / os.sysconf("SC_CLK_TCK"),
        "run_s": elapsed,
        "compiler": report["compiler"],
        "build_type": report["build_type"],
    }
    report["env"] = env
    with open(stem + ".json", "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)

    if args.trace:
        declared, source = catalog["per_layer"], report["layer"]
    else:
        declared, source = catalog["end_to_end"], report["e2e"]
    correct = bool(report["correct"])
    metrics = {}
    for metric in declared:
        value = source.get(metric["name"])
        if value is None or not math.isfinite(value):
            print(f"run.py: metric {metric['name']} missing or not finite",
                  file=sys.stderr)
            correct = False
            value = 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
