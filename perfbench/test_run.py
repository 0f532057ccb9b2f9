"""Tests for run.py's helpers and for BENCHMARK.json itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import os
import re
import unittest

import run

ROOT = os.path.dirname(run.BENCH_DIR)


class BenchmarkSpec(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec(ROOT)

    def test_has_exactly_the_expected_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertIsInstance(self.spec["run_seconds"], int)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)

    def test_metric_names_units_and_bounds(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["name"], run.NAME_RE)
            self.assertRegex(m["unit"], run.UNIT_RE)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in self.spec["end_to_end"]))

    def test_binary_declares_the_same_metrics(self):
        """Every metric the binary can emit (report.rs METRICS) is declared
        here with the same unit, direction and table, and vice versa."""
        with open(os.path.join(run.BENCH_DIR, "src", "report.rs")) as f:
            rows = re.findall(r'\("([^"]+)", "([^"]+)", "([^"]+)", Kind::(\w+)\)', f.read())
        emitted = {n: (u, b, k == "Layer") for n, u, b, k in rows}
        declared = {m["name"]: (m["unit"], m["better"], False) for m in self.spec["end_to_end"]}
        declared.update({m["name"]: (m["unit"], m["better"], True) for m in self.spec["per_layer"]})
        self.assertEqual(emitted, declared)

    def test_every_workload_pins_a_digest(self):
        for w in self.spec["workloads"]:
            self.assertIsNotNone(run.pinned_digest(self.spec, w["name"]), w["name"])


class ValidateMetrics(unittest.TestCase):
    spec = {
        "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "core.search_s", "unit": "s", "better": "lower"}],
        "workloads": [{"name": "w", "why": "x. size digest at seed 3: 00000000000000ff"}],
    }

    def metrics(self, **extra):
        good = {"setup_s": {"value": 1.5, "unit": "s", "better": "lower"},
                "core.search_s": {"value": 2, "unit": "s", "better": "lower"}}
        good.update(extra)
        return good

    def test_accepts_declared_metrics(self):
        self.assertEqual(run.validate_metrics(self.spec, 0, self.metrics()), [])
        self.assertEqual(run.validate_metrics(self.spec, 1, self.metrics()), [])

    def test_rejects_undeclared_malformed_and_mismatched(self):
        bad = self.metrics(**{"x.y": {"value": 1, "unit": "s", "better": "lower"},
                              "bad name": {"value": 1, "unit": "s", "better": "lower"}})
        bad["setup_s"] = {"value": 1, "unit": "ms", "better": "lower"}
        problems = run.validate_metrics(self.spec, 0, bad)
        self.assertEqual(len(problems), 3, problems)
        self.assertTrue(any("x.y is not declared" in p for p in problems))
        self.assertTrue(any("malformed" in p for p in problems))
        self.assertTrue(any("unit/direction" in p for p in problems))

    def test_rejects_missing_and_non_numeric(self):
        m = self.metrics()
        del m["core.search_s"]
        self.assertEqual(len(run.validate_metrics(self.spec, 1, m)), 1)
        m = self.metrics(setup_s={"value": math.nan, "unit": "s", "better": "lower"})
        self.assertEqual(len(run.validate_metrics(self.spec, 0, m)), 1)
        m = self.metrics(setup_s={"value": True, "unit": "s", "better": "lower"})
        self.assertEqual(len(run.validate_metrics(self.spec, 0, m)), 1)

    def test_pinned_digest(self):
        self.assertEqual(run.pinned_digest(self.spec, "w"), (3, "00000000000000ff"))
        self.assertIsNone(run.pinned_digest(self.spec, "other"))


class Summaries(unittest.TestCase):
    def test_min_median_max_per_metric(self):
        s = run.summarize([{"a": 3.0, "b": 1.0}, {"a": 1.0}, {"a": 2.0, "b": 5.0}])
        self.assertEqual(s["a"], {"n": 3, "min": 1.0, "median": 2.0, "max": 3.0})
        self.assertEqual(s["b"], {"n": 2, "min": 1.0, "median": 3.0, "max": 5.0})
        self.assertEqual(json.loads(json.dumps(s)), s)


if __name__ == "__main__":
    unittest.main()
