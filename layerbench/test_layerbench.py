#!/usr/bin/env python3
"""Self-test of the layer benchmark at tiny scale.

    python3 layerbench/test_layerbench.py

For every workload run.py accepts (those BENCHMARK.json lists and those
only run by hand) it checks that an untraced run emits the declared
end-to-end metrics and a traced run the declared per-layer metrics, each
with its declared unit (exactly those for a listed workload), with every result
correct; and that a deliberately corrupted result trips the correctness
gate (non-zero exit, "correct": false).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result, p.stdout + p.stderr


class LayerBenchTest(unittest.TestCase):
    def check_metrics(self, result, declared, exact):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if exact:
            self.assertEqual(got, want)
        else:  # serve_mixed also prints its request rate and latency
            self.assertEqual({k: got.get(k) for k in want}, want)
        for v in result["metrics"].values():
            self.assertIsInstance(v["value"], (int, float))

    def test_listed_workloads_are_runnable(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))

    def test_metrics_emitted_with_units(self):
        listed = {w["name"] for w in SPEC["workloads"]}
        for w in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    code, result, log = run(w, trace)
                    self.assertEqual(code, 0, log)
                    self.assertIsNotNone(result, log)
                    self.assertTrue(result["correct"], log)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.check_metrics(result, SPEC[key], w in listed)

    def test_corrupted_result_trips_gate(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, log = run(w, 0, "--corrupt")
                self.assertNotEqual(code, 0, log)
                self.assertIsNotNone(result, log)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


if __name__ == "__main__":
    unittest.main()
