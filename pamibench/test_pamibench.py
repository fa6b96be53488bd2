#!/usr/bin/env python3
"""Tiny-scale tests of pamibench itself.

    python3 pamibench/test_pamibench.py

Builds the benchmark (as run.py does), then runs every workload (those of
BENCHMARK.json and mpi-stream) briefly in both modes and checks the result
schema, the metric names and units, that nothing failed, and that plans are
a function of the seed.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# mpi-stream is not in BENCHMARK.json (too noisy to gate on a shared host)
# but stays runnable, so it is tested with the others.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["mpi-stream"]


def run_workload(name, trace, seed=3, seconds=0.5):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                       capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    lines = r.stdout.strip().splitlines()
    return r.returncode, lines[-1], json.loads(lines[-2])["pamibench"], r.stderr


def plan_hash(binary, name, seed):
    r = subprocess.run([binary, "--workload", name, "--seed", str(seed), "--plan-hash"],
                       capture_output=True, text=True, timeout=30, check=True)
    return json.loads(r.stdout)["plan_hash"]


class PamibenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def check_run(self, name, trace):
        code, line, detail, err = run_workload(name, trace)
        self.assertEqual(code, 0, err)
        # Result keys and every BENCHMARK.json metric name with its unit.
        self.assertEqual(run.check_result(line, trace), [])
        res = json.loads(line)
        self.assertIs(res["correct"], True)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(detail["fail_ratio"], 0)
        self.assertTrue(all(detail["checks"].values()), detail["checks"])
        for k, v in res["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), k)
        host = detail["host"]
        for key in ("git_sha", "compiler", "build_type", "nproc", "affinity_cores", "pamix_env"):
            self.assertIn(key, host)
        return res

    def test_end_to_end_schema(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                res = self.check_run(name, 0)
                for k, v in res["metrics"].items():
                    self.assertGreater(v["value"], 0, k)

    def test_per_layer_schema(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                res = self.check_run(name, 1)
                self.assertEqual(res["metrics"]["fail_ratio"]["value"], 0)

    def test_plan_follows_seed(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                a = plan_hash(self.binary, name, 7)
                self.assertEqual(a, plan_hash(self.binary, name, 7))
                self.assertNotEqual(a, plan_hash(self.binary, name, 8))

    def test_unknown_workload_fails(self):
        r = subprocess.run([self.binary, "--workload", "nope", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], capture_output=True, text=True, timeout=30)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "")


if __name__ == "__main__":
    unittest.main()
