#!/usr/bin/env python3
"""Steadiness report: runs the workloads several times, interleaved (one run
of each workload per round), and prints every end-to-end metric's median,
quartiles and min/max, and its spread (interquartile range / median)
against a third of the metric's bound.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--same-seed] [--workloads a,b]
                                    [--seconds S]

Run it from the root of a checkout, with nothing else loading the box.
By default round k runs every workload with seed first-seed + k, as the
gate does; with --same-seed every round uses first-seed, so the spread is
the box's and the program's noise alone, without the inputs changing.
Interleaving spreads a slow period of the box over all the workloads
instead of one. Exits 1 when a run fails or any spread, setup_s's
included, is wider than a third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    """Returns (result line, env record) of one run, or None if it failed."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return None
    env = json.loads(lines[-2][len("env "):]) if lines[-2].startswith(
        "env ") else {}
    return json.loads(lines[-1]), env


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        catalog = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in catalog["workloads"]))
    parser.add_argument("--seconds", type=float,
                        default=catalog["run_seconds"])
    args = parser.parse_args()

    ok = True
    bounds = {m["name"]: m["bound"] for m in catalog["end_to_end"]}
    workloads = args.workloads.split(",")
    values = {w: {name: [] for name in bounds} for w in workloads}
    steal = {w: 0.0 for w in workloads}
    seeds = [args.first_seed + (0 if args.same_seed else k)
             for k in range(args.runs)]
    for seed in seeds:
        for workload in workloads:
            outcome = run_once(workload, seed, args.seconds)
            result = outcome[0] if outcome else None
            if result is None or not result["correct"] or result["failed"]:
                print(f"{workload}: run with seed {seed} failed: {result}")
                ok = False
                continue
            steal[workload] += outcome[1].get("steal_s", 0.0)
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={result['metrics'][name]['value']:.6g}"
                for name in bounds), flush=True)

    for workload in workloads:
        series_of = values[workload]
        print(f"\n{workload} ({len(series_of['wall_s'])} runs, seeds "
              f"{seeds[0]}..{seeds[-1]}, {steal[workload]:.1f} s stolen)")
        print(f"  {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>7} {'bound/3':>7}")
        for name, series in series_of.items():
            if len(series) < 2:
                continue
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med if med else 0.0
            limit = bounds[name] / 3
            flag = ""
            if spread > limit:
                flag = "  TOO WIDE"
                ok = False
            print(f"  {name:24} {statistics.median(series):12.6g} "
                  f"{q1:12.6g} {q3:12.6g} {min(series):12.6g} "
                  f"{max(series):12.6g} {spread:7.4f} {limit:7.4f}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
