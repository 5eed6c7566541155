#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

They build the benchmark like perfbench/run.py does, then run every workload
at tiny size (scale-1 city, 2k transactions, short serve steps), inject
one corrupted snapshot byte and one corrupted serve response, lint the
metric names, and check that the benchmark refuses to run without the
library sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class MetricNames(unittest.TestCase):
    def test_names_use_only_allowed_characters(self):
        spec = benchmark_json()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(names), len(set(names)))

    def test_binary_lists_the_benchmark_metrics(self):
        proc, _ = run("--list-metrics")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        listed = {"end_to_end": [], "per_layer": []}
        section = None
        for line in proc.stdout.splitlines():
            if line in listed:
                section = line
            elif line.strip():
                listed[section].append(tuple(line.split(" ")))
        spec = benchmark_json()
        for key in listed:
            self.assertEqual(listed[key],
                             [(m["name"], m["unit"]) for m in spec[key]])
            for name, _ in listed[key]:
                self.assertRegex(name, NAME)


class TinyRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        spec = benchmark_json()
        key = "per_layer" if trace else "end_to_end"
        proc, result = run("--workload", workload, "--seed", "2007",
                           "--seconds", "1", "--trace", str(trace), "--tiny")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIsNotNone(result, proc.stdout)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        if not trace:
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)

    def test_every_workload_prints_every_metric(self):
        for workload in [w["name"] for w in benchmark_json()["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)


class Corruption(unittest.TestCase):
    def check_fails(self, workload, fault, trace):
        proc, result = run("--workload", workload, "--seconds", "1",
                           "--trace", str(trace), "--tiny", "--fault", fault)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNotNone(result, proc.stdout)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)
        self.assertIn("CHECK FAILED", proc.stdout)

    def test_corrupted_snapshot_byte_fails_the_check(self):
        self.check_fails("city-pipeline", "snapshot", 0)

    def test_corrupted_serve_response_fails_the_check(self):
        # Only a traced run serves.
        self.check_fails("city-coloc", "response", 1)


class BareCheckout(unittest.TestCase):
    def test_refuses_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "city-pipeline", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=bare, env=env, capture_output=True,
                text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
