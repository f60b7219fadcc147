#!/usr/bin/env python3
"""Self-test of the benchmark: the smoke mode (tiny budgets) must emit
every BENCHMARK.json metric with its unit, agree between -jobs=1 and
-jobs=4, and rebuild every traced iteration faithfully; the digest check
must count a tampered digest as a failure.

  python3 perfbench/test_perfbench.py
"""

import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


class PerfbenchTest(unittest.TestCase):
    def test_smoke(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
            cwd=run.ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=900)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        for w in run.WORKLOADS:
            self.assertIn("smoke %s" % w, proc.stdout)

    def test_digest_mismatch_counts_as_failure(self):
        labels = ["k/d2", "q/d2"]
        good = ["v=pass n=5", "v=partial_deadlock n=2"]
        reference = {"workloads": {"core_j1": {
            "config": "c", "labels": labels,
            "digests": [[run.digest_hash(d) for d in good]]}}}
        result = {"workload": "core_j1", "config": "c",
                  "digests": [[0, labels[0], good[0]],
                              [0, labels[1], "v=pass n=9"]]}
        self.assertEqual(run.check_digests(result, reference), (2, 1))
        result["config"] = "other"
        with self.assertRaises(run.BenchError):
            run.check_digests(result, reference)


if __name__ == "__main__":
    unittest.main()
