#!/usr/bin/env python3
"""tools/ab_summary.py on crafted result lines: the "head wins" column
counts HEAD's pair wins, k of n, and marks "gain" only at 9 in 10 or more
with the medians apart by more than BASE's interquartile distance.

    python3 tests/ab_summary_test.py REPO_ROOT
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = sys.argv.pop(1) if len(sys.argv) > 1 else os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..")
SUMMARY = os.path.join(REPO, "tools", "ab_summary.py")
BENCH = os.path.join(REPO, "BENCHMARK.json")


def line(side, workload, seed, op_p50_ms):
    host = {"nproc": 4, "cpu_model": "test", "build_type": "RelWithDebInfo",
            "merch_obs": 1, "compiler": "test", "git_sha": side,
            "loadavg_before": [0.5, 0.5, 0.5]}
    metrics = {"setup_s": {"value": 0.5}, "op_p50_ms": {"value": op_p50_ms},
               "peak_rss_mb": {"value": 30.0}}
    return json.dumps({
        "side": side, "workload": workload, "seed": seed,
        "record": {"host": host, "digest": f"d{seed}"},
        "result": {"failed": 0, "attempted": 100, "correct": True,
                   "metrics": metrics}})


def summarize(base_ms, head_ms):
    """Summary output and exit status for op_p50_ms pairs (seed i+1 = pair i)
    on every BENCHMARK.json workload."""
    workloads = [w["name"] for w in json.load(open(BENCH))["workloads"]]
    with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                     delete=False) as f:
        for w in workloads:
            for i, (b, h) in enumerate(zip(base_ms, head_ms)):
                f.write(line("base", w, i + 1, b) + "\n")
                f.write(line("head", w, i + 1, h) + "\n")
        path = f.name
    try:
        out = subprocess.run(
            [sys.executable, SUMMARY, BENCH, path, "base", "head",
             str(len(base_ms)), "40"],
            capture_output=True, text=True)
    finally:
        os.unlink(path)
    return out.stdout, out.returncode


def op_rows(stdout):
    return [l for l in stdout.splitlines() if l.strip().startswith("op_p50_ms")]


class HeadWinsColumn(unittest.TestCase):
    BASE = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.5, 99.5, 101.5]

    def test_ten_of_ten_with_a_clear_median_gap_is_a_gain(self):
        head = [b * 0.6 for b in self.BASE]
        stdout, status = summarize(self.BASE, head)
        self.assertEqual(status, 0, stdout)
        rows = op_rows(stdout)
        self.assertTrue(rows, stdout)
        for row in rows:
            self.assertIn("10/10 gain", row)
            self.assertIn("ok (head better in every run)", row)

    def test_eight_of_ten_is_no_gain(self):
        head = [b * 0.6 for b in self.BASE]
        head[0] = self.BASE[0] * 1.01
        head[1] = self.BASE[1] * 1.01
        stdout, status = summarize(self.BASE, head)
        self.assertEqual(status, 0, stdout)
        for row in op_rows(stdout):
            self.assertIn("8/10", row)
            self.assertNotIn("gain", row)

    def test_ties_count_for_neither_side(self):
        stdout, _ = summarize(self.BASE, list(self.BASE))
        for row in op_rows(stdout):
            self.assertIn("0/10", row)
            self.assertNotIn("gain", row)

    def test_wins_inside_the_base_spread_are_no_gain(self):
        # Every pair won, but by less than BASE's interquartile distance.
        head = [b - 0.5 for b in self.BASE]
        stdout, _ = summarize(self.BASE, head)
        for row in op_rows(stdout):
            self.assertIn("10/10", row)
            self.assertNotIn("gain", row)

    def test_regression_verdict_and_exit_status_are_unchanged(self):
        head = [b * 1.5 for b in self.BASE]
        stdout, status = summarize(self.BASE, head)
        self.assertEqual(status, 1, stdout)
        self.assertIn("verdict: REGRESSED", stdout)
        for row in op_rows(stdout):
            self.assertIn("0/10", row)
            self.assertIn("regressed (bound 0.25)", row)


if __name__ == "__main__":
    unittest.main()
