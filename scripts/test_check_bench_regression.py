#!/usr/bin/env python3
"""Tests for check_bench_regression.py, the BENCH_SPMM.json gate.

Each case writes a synthetic schema-1 baseline and a fresh run to a
temporary directory and runs the gate's command line on them, so the
exit status is the one CI sees.

Usage:
    python3 scripts/test_check_bench_regression.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(HERE, "check_bench_regression.py")
COMMITTED = os.path.join(HERE, os.pardir, "BENCH_SPMM.json")

sys.path.insert(0, HERE)
import check_bench_regression as gate  # noqa: E402


def passing_series():
    """One row per expected label: 10 ms, each floored speedup 0.5 above
    its floor, each pinned regime "memory"."""
    rows = {}
    for label in gate.EXPECTED_LABELS:
        row = {"op": "spmm", "label": label, "r": 1024, "k": 768, "c": 8,
               "config": "128:2:10", "median_ms": 10.0}
        if label in gate.SPEEDUP_FLOORS:
            row.update(ref="reference", ref_median_ms=20.0,
                       speedup_vs_ref=gate.SPEEDUP_FLOORS[label] + 0.5)
        if label in gate.REGIME_PINNED:
            row["regime"] = "memory"
        rows[label] = row
    return rows


def slowed(rows, factor):
    return {label: dict(row, median_ms=row["median_ms"] * factor)
            for label, row in rows.items()}


class GateTest(unittest.TestCase):
    def run_gate(self, baseline, new):
        """Exit status and combined output of the gate on two row sets."""
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, rows in (("baseline.json", baseline), ("new.json", new)):
                path = os.path.join(tmp, name)
                with open(path, "w") as f:
                    json.dump({"schema": 1, "series": list(rows.values())}, f)
                paths.append(path)
            done = subprocess.run(
                [sys.executable, GATE, "--baseline", paths[0], "--new", paths[1]],
                capture_output=True, text=True)
        return done.returncode, done.stdout + done.stderr

    def test_identical_runs_pass(self):
        rows = passing_series()
        code, out = self.run_gate(rows, rows)
        self.assertEqual(code, 0, out)

    def test_series_missing_from_the_fresh_run_fails(self):
        baseline = passing_series()
        new = dict(baseline)
        del new["fig09_k768_i8"]
        code, out = self.run_gate(baseline, new)
        self.assertNotEqual(code, 0, out)
        self.assertIn("fig09_k768_i8", out)

    def test_series_dropped_from_the_fresh_run_fails_the_regression_check(self):
        baseline = passing_series()
        baseline["retired_series"] = dict(baseline["bert_k3072"],
                                          label="retired_series")
        self.assertEqual(
            gate.check_regressions(baseline, passing_series(), 1.25),
            ["retired_series"])

    def test_flipped_regime_fails(self):
        baseline = passing_series()
        new = passing_series()
        new["spmm_small_c"]["regime"] = "compute"
        code, out = self.run_gate(baseline, new)
        self.assertNotEqual(code, 0, out)
        self.assertIn("regime flipped", out)

    def test_speedup_at_its_floor_fails(self):
        rows = passing_series()
        rows["spmm_small_c"]["speedup_vs_ref"] = gate.SPEEDUP_FLOORS["spmm_small_c"]
        code, out = self.run_gate(passing_series(), rows)
        self.assertNotEqual(code, 0, out)
        self.assertIn("spmm_small_c", out)

    def test_every_failing_floor_is_reported_with_the_other_checks(self):
        rows = passing_series()
        for label in ("spmm_small_c", "attn_causal"):
            rows[label]["speedup_vs_ref"] = gate.SPEEDUP_FLOORS[label] - 0.1
        rows["spmm_swapped"]["regime"] = "compute"
        code, out = self.run_gate(passing_series(), rows)
        self.assertNotEqual(code, 0, out)
        self.assertIn("spmm_small_c: speedup_vs_ref", out)
        self.assertIn("attn_causal: speedup_vs_ref", out)
        # The regime and regression checks still ran.
        self.assertIn("regime flipped", out)
        self.assertIn("machine-speed factor", out)

    def test_one_slow_series_fails(self):
        baseline = passing_series()
        new = dict(baseline, bert_k3072=slowed(baseline, 2.0)["bert_k3072"])
        code, out = self.run_gate(baseline, new)
        self.assertNotEqual(code, 0, out)
        self.assertIn("bert_k3072", out)
        self.assertIn("REGRESSION", out)

    def test_uniform_2x_slowdown_passes(self):
        baseline = passing_series()
        code, out = self.run_gate(baseline, slowed(baseline, 2.0))
        self.assertEqual(code, 0, out)
        self.assertNotIn("REGRESSION", out)

    def test_uniform_4x_slowdown_trips_the_suite_backstop(self):
        baseline = passing_series()
        code, out = self.run_gate(baseline, slowed(baseline, 4.0))
        self.assertNotEqual(code, 0, out)
        self.assertNotIn("REGRESSION", out)
        self.assertIn("suite-wide slowdown", out)

    def test_expected_labels_match_the_committed_baseline(self):
        with open(COMMITTED) as f:
            committed = {s["label"] for s in json.load(f)["series"]}
        self.assertEqual(len(gate.EXPECTED_LABELS), len(set(gate.EXPECTED_LABELS)))
        self.assertEqual(set(gate.EXPECTED_LABELS), committed)


if __name__ == "__main__":
    unittest.main()
