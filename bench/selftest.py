"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 bench/selftest.py

Checks that a run emits exactly the metric names and units BENCHMARK.json
declares, end to end and per layer, that E6 counts as a failed op of
resolve-corpus, and that the traced run keeps its integrity checks.
"""

from __future__ import annotations

import json
import sys
import unittest

import run

run.import_library()

import workloads  # noqa: E402

# A few cheap cases per workload; resolve-corpus keeps E6.
TINY = {
    "resolve-corpus": ("cusp", "monomial", "e6"),
    "queries": 3,
    "blowup-chains": 3,
}


def tiny_cases(workload: str) -> list[dict]:
    cases = workloads.load(workload, seed=1)
    keep = TINY[workload]
    if isinstance(keep, int):
        return sorted(cases, key=lambda c: c.get("recorded_ms", 0))[:keep]
    return [c for c in cases if c["name"] in keep]


def declared(key: str):
    return json.loads((run.HERE.parent / "BENCHMARK.json").read_text())[key]


def declared_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in declared(kind)}


class BenchmarkSelfTest(unittest.TestCase):
    def check(self, workload: str, trace: bool) -> dict:
        result = run.benchmark(workload, 1, 0, trace, cases=tiny_cases(workload))
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(units, declared_units("per_layer" if trace else "end_to_end"))
        return result

    def test_workload_names(self):
        self.assertEqual([w["name"] for w in declared("workloads")], list(workloads.WORKLOADS))

    def test_end_to_end_metrics(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check(workload, trace=False)
                if workload == "resolve-corpus":
                    # E6, one of the three cases, leaks PreconditionError every pass
                    self.assertEqual(3 * result["failed"], result["attempted"])
                    self.assertAlmostEqual(result["metrics"]["success_rate"]["value"], 2 / 3)
                else:
                    self.assertEqual(result["failed"], 0)

    def test_per_layer_metrics(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check(workload, trace=True)["metrics"]
                gb_calls = metrics["ideal.groebner_basis.calls"]["value"]
                if workload == "blowup-chains":
                    self.assertEqual(gb_calls, 0)
                else:
                    self.assertGreater(gb_calls, 0)

    def test_tracer_restores_the_library(self):
        from tracer import TRACED, Tracer

        before = {name: self.lookup(owner, attr) for name, owner, attr in TRACED}
        resolve_module = sys.modules["qrees.resolve"]
        rebound = resolve_module.transform_algebra
        with Tracer():
            self.assertIsNot(resolve_module.transform_algebra, rebound)
            self.assertIs(resolve_module.transform_algebra, sys.modules["qrees.charts"].transform_algebra)
            self.assertIs(resolve_module.diff_saturate, sys.modules["qrees.saturation"].diff_saturate)
        after = {name: self.lookup(owner, attr) for name, owner, attr in TRACED}
        self.assertEqual(before, after)

    @staticmethod
    def lookup(owner: str, attr: str):
        module_name, _, class_name = owner.partition(":")
        target = sys.modules[module_name]
        if class_name:
            return getattr(target, class_name).__dict__[attr]
        return getattr(target, attr)


if __name__ == "__main__":
    unittest.main()
