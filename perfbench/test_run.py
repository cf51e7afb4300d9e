#!/usr/bin/env python3
"""Self-tests of the benchmark's metric names.

Run from anywhere: python3 perfbench/test_run.py
It builds the benchmark crate and makes one short run of each mode.
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class MetricNames(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def declared(self, key):
        return {m["name"]: m["unit"] for m in self.spec[key]}

    def test_every_name_matches_the_pattern(self):
        names = [w["name"] for w in self.spec["workloads"]]
        names += list(self.declared("end_to_end")) + list(self.declared("per_layer"))
        names += list(run.END_TO_END) + list(run.PER_LAYER)
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def test_printed_names_equal_benchmark_json(self):
        os.chdir(ROOT)
        binary = run.build()
        self.assertIsNotNone(binary, "the benchmark crate builds")
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            # One process of each kind: the run ends once the time is up.
            result = run.measure(binary, "campaign", 1, 0.001, traced)
            self.assertTrue(result["correct"], result)
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            self.assertEqual(printed, self.declared(key))
            for m in result["metrics"].values():
                self.assertIsInstance(m["value"], (int, float))


if __name__ == "__main__":
    unittest.main()
