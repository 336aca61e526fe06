#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny scale.

    python3 perfbench/smoke_test.py

Run it from the root of a checkout; the first run builds the runner. For
every workload of BENCHMARK.json it checks that
  * every declared metric is emitted with its unit and a finite value,
    with tracing off (end_to_end) and on (per_layer);
  * the virtual-clock metrics repeat exactly for the same seed, and are
    the same in the traced and the untraced run;
  * a second seed changes the inputs (some virtual metric moves) but not
    the correctness verdict.
"""
import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CATALOG = json.load(_handle)


def results_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = path if os.path.isabs(path) else os.path.join(ROOT, path)
    return os.path.join(path, "results")


def run(workload, seed, trace):
    """Returns (final line, full report) of one tiny run."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{seed}-trace{trace}-tiny.json"
    with open(os.path.join(results_dir(), stem)) as handle:
        report = json.load(handle)
    return line, report


class SmokeTest(unittest.TestCase):
    def check_metrics(self, line, declared):
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(set(line["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            emitted = line["metrics"][metric["name"]]
            self.assertEqual(emitted["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(emitted["value"]), metric["name"])

    def test_workloads(self):
        for workload in (w["name"] for w in CATALOG["workloads"]):
            with self.subTest(workload=workload):
                plain, plain_report = run(workload, 1, 0)
                again, again_report = run(workload, 1, 0)
                traced, traced_report = run(workload, 1, 1)
                other, other_report = run(workload, 2, 0)

                for line in (plain, again, traced, other):
                    self.assertTrue(line["correct"])
                    self.assertEqual(line["failed"], 0)
                    self.assertGreaterEqual(line["attempted"], 1)
                self.check_metrics(plain, CATALOG["end_to_end"])
                self.check_metrics(traced, CATALOG["per_layer"])
                for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb"):
                    self.assertGreater(plain["metrics"][name]["value"], 0,
                                       name)

                self.assertEqual(plain_report["virt"], again_report["virt"])
                self.assertEqual(plain_report["virt"], traced_report["virt"])
                self.assertNotEqual(plain_report["virt"], other_report["virt"])


if __name__ == "__main__":
    unittest.main()
