#!/usr/bin/env python3
"""The benchmark's own tests, at the tiny input scale.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout; the first run builds the benchmark.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
EXPECTED = os.path.join(ROOT, "perfbench", "expected_digests.txt")
WORK = os.path.join(ROOT, ".bench_work")


def run(*args):
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)


def tiny(workload, trace, *extra):
    return run("--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny", *extra)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, result, declared):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])

    def test_every_metric_prints_with_its_unit(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
                with self.subTest(workload=workload, trace=trace):
                    proc = tiny(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = result_of(proc)
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.check_metrics(result, self.spec[key])
                    for m in self.spec[key]:
                        self.assertIn("metric " + m["name"], proc.stdout)

    def test_corrupted_digest_raises_failed_share(self):
        with open(EXPECTED) as f:
            digests = dict(line.split() for line in f)
        # Seed 7 starts at campaign seed 1007; corrupt its tiny reduce digest.
        key = "dedup/40/150/50/1007/reductions"
        self.assertIn(key, digests)
        digests[key] = "0" * 16
        os.makedirs(WORK, exist_ok=True)
        corrupt = os.path.join(WORK, "expected-corrupt.txt")
        with open(corrupt, "w") as f:
            f.writelines(f"{k} {v}\n" for k, v in digests.items())
        proc = tiny("reduce", 0, "--expected", corrupt)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("digest mismatch", proc.stdout)

    def test_missing_seed_is_rejected(self):
        proc = run("--workload", "scan", "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")
        self.assertIn("--seed", proc.stderr)


if __name__ == "__main__":
    unittest.main()
