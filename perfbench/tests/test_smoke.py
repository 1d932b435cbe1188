#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests

Builds giph_perfbench through run.py, then runs every workload untraced and
traced at ``--size tiny`` on two seeds. Checks that each run passes its own
output checks, that every metric BENCHMARK.json declares is emitted and
finite, and that a second seed changes the inputs but not the metric names.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().split("\n")
    digest = next((l.split()[1] for l in lines if l.startswith("inputs ")), None)
    return proc, json.loads(lines[-1]) if proc.returncode == 0 else None, digest


class SmokeTest(unittest.TestCase):
    spec = load_spec()

    def test_every_workload_emits_every_metric(self):
        for w in (x["name"] for x in self.spec["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                declared = {m["name"]: m["unit"] for m in self.spec[key]}
                names, digests = [], []
                for seed in (1, 2):
                    with self.subTest(workload=w, trace=trace, seed=seed):
                        proc, result, digest = run(w, seed, trace)
                        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                        self.assertTrue(result["correct"])
                        self.assertGreaterEqual(result["attempted"], 1)
                        self.assertEqual(result["failed"], 0)
                        metrics = result["metrics"]
                        self.assertEqual(set(metrics), set(declared))
                        for name, m in metrics.items():
                            self.assertTrue(math.isfinite(m["value"]), name)
                            self.assertEqual(m["unit"], declared[name], name)
                        if trace == 0:
                            for name, m in metrics.items():
                                self.assertGreater(m["value"], 0.0, name)
                        names.append(sorted(metrics))
                        digests.append(digest)
                with self.subTest(workload=w, trace=trace, check="seeds"):
                    self.assertEqual(names[0], names[1])
                    self.assertIsNotNone(digests[0])
                    self.assertNotEqual(digests[0], digests[1])

    def test_bad_arguments_exit_nonzero_without_result(self):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "nope", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
