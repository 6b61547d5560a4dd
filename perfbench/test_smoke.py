#!/usr/bin/env python3
"""Smoke tests of the benchmark at reduced scale.

Run from the root of a parsplu checkout:

    python3 perfbench/test_smoke.py

Every workload runs for one second on the `Scale::Reduced` matrices, once
untraced and once traced. Each run must print, as its last line, a result
naming every metric of BENCHMARK.json with its unit, with no failed
operation and correct output. A copy of the benchmark without the rest of
the repository must refuse to run.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "reduced"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900,
    )


class Smoke(unittest.TestCase):
    def check(self, workload, trace, expected):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0, done.stderr[-2000:])
        metrics = result["metrics"]
        self.assertEqual(list(metrics), [m["name"] for m in expected])
        for m in expected:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float), m["name"])

    def test_every_workload_prints_every_metric(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check(w["name"], 0, BENCH["end_to_end"])
            with self.subTest(workload=w["name"], trace=1):
                self.check(w["name"], 1, BENCH["per_layer"])

    def test_refuses_without_the_repository(self):
        alone = os.path.join(ROOT, ".bench_work", f"alone-{os.getpid()}")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
            shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            done = run(BENCH["workloads"][0]["name"], 0, cwd=alone,
                       script=os.path.join(alone, "perfbench", "run.py"))
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
