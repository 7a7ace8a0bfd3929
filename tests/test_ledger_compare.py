#!/usr/bin/env python3
"""The performance gate's decision rule (scripts/ledger_compare.py) on canned
perfbench result lines; nothing is built or run."""
import importlib.util
import json
import os
import unittest

_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts",
                       "ledger_compare.py")
_spec = importlib.util.spec_from_file_location("ledger_compare", _SCRIPT)
ledger_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_compare)

METRICS = [
    {"name": "sim_node_s_per_s", "unit": "node_s/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]
STEADY = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]


def line(rate, setup=1.0, correct=True):
    return json.dumps({"correct": correct, "attempted": 1, "failed": 0, "metrics": {
        "sim_node_s_per_s": {"value": rate, "unit": "node_s/s"},
        "setup_s": {"value": setup, "unit": "s"}}})


def verdicts(parent, change):
    report, regressed = ledger_compare.decide(METRICS, parent, change)
    rows = {row.split()[0]: row.split()[-1] for row in report[1:]}
    return rows, regressed


class DecideTest(unittest.TestCase):
    def test_resolved_regression_fails(self):
        rows, regressed = verdicts([line(v) for v in STEADY], [line(0.7 * v) for v in STEADY])
        self.assertEqual(rows, {"sim_node_s_per_s": "REGRESSION", "setup_s": "ok"})
        self.assertTrue(regressed)

    def test_improvement_passes(self):
        rows, regressed = verdicts([line(v, setup=2.0) for v in STEADY],
                                   [line(1.5 * v, setup=1.0) for v in STEADY])
        self.assertEqual(rows, {"sim_node_s_per_s": "ok", "setup_s": "ok"})
        self.assertFalse(regressed)

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [50, 150, 60, 140, 70, 130, 55, 145, 100, 100]
        rows, regressed = verdicts([line(100, setup=s / 100) for s in noisy],
                                   [line(100, setup=1.4 * s / 100) for s in noisy])
        self.assertEqual(rows, {"sim_node_s_per_s": "ok", "setup_s": "unresolved"})
        self.assertFalse(regressed)

    def test_wide_spread_resolves_when_every_change_run_is_better(self):
        noisy = [50, 150, 60, 140, 70, 130, 55, 145, 100, 100]
        rows, regressed = verdicts([line(100, setup=s) for s in noisy],
                                   [line(100, setup=s / 1000) for s in noisy])
        self.assertEqual(rows["setup_s"], "ok")
        self.assertFalse(regressed)

    def test_larger_failed_share_fails(self):
        parent = [line(v) for v in STEADY]
        change = [line(v) for v in STEADY[:-2]] + [line(100, correct=False), "build failed"]
        report, regressed = ledger_compare.decide(METRICS, parent, change)
        self.assertIn("failed runs: parent 0%, change 20% REGRESSION", report[0])
        self.assertTrue(regressed)


if __name__ == "__main__":
    unittest.main()
