#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds perfbench and perfbench_test (as run.py does), runs the C++ unit
tests (percentile rule, seeded Zipf/key generation, due-time scheduling,
the metric table), and checks that the metrics the binary can print are
exactly the ones BENCHMARK.json declares, with the same units.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build("perfbench")
        cls.unit_tests = run.build("perfbench_test")
        if cls.binary is None or cls.unit_tests is None:
            raise unittest.SkipTest("perfbench did not build")
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_unit_tests_pass(self):
        proc = subprocess.run([self.unit_tests], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_printed_metrics_match_benchmark_json(self):
        proc = subprocess.run([self.binary, "--list-metrics"], capture_output=True,
                              text=True, check=True)
        printed = {"e2e": {}, "layer": {}}
        for line in proc.stdout.splitlines():
            table, name, unit = line.split()
            printed[table][name] = unit
        declared_e2e = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        declared_layer = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(printed["e2e"], declared_e2e)
        self.assertEqual(printed["layer"], declared_layer)
        self.assertIn("setup_s", declared_e2e)

    def test_workloads_match(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, ["batch-run", "stream-live", "serve-zipf", "serve-uniform"])

    def test_bad_arguments_exit_2(self):
        for args in (["--workload", "nope", "--seed", "1"], ["--workload", "batch-run"],
                     ["--workload", "batch-run", "--seed", "x"]):
            proc = subprocess.run([self.binary] + args, capture_output=True, text=True)
            self.assertEqual(proc.returncode, 2, args)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
