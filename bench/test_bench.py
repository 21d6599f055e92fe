"""Tests of the benchmark itself (standard library only).

    python3 -m unittest discover -s bench -p "test_*.py"

Run from the repository root, like the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle as O  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

# a few items per workload keep the traced checks quick
TRACE_SAMPLE = {"float_mix": 40, "exact_rational": 25, "exact_deep": 2, "cli_docs": 40}


def _sample(name: str, seed: int):
    items = W.build(name, seed)
    if name == "exact_deep":
        items = sorted(items, key=lambda it: it.depth)
    return items[: TRACE_SAMPLE[name]]


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in W.WORKLOADS:
            with self.subTest(name):
                a = [it.spec for it in W.build(name, 7)]
                b = [it.spec for it in W.build(name, 7)]
                self.assertEqual(a, b)

    def test_other_seed_other_inputs(self):
        for name in W.WORKLOADS:
            with self.subTest(name):
                a = [it.spec for it in W.build(name, 7)]
                self.assertNotEqual(a, [it.spec for it in W.build(name, 8)])
                self.assertNotEqual(a, [it.spec for it in W.build(name, 7, cycle=1)])

    def test_mix_matches_recorded_descriptor(self):
        recorded = json.loads((BENCH / "descriptors.json").read_text())["workloads"]
        for name in W.WORKLOADS:
            for seed in (0, 1, 2, 12345):
                with self.subTest(name=name, seed=seed):
                    self.assertEqual(W.describe(W.build(name, seed)), recorded[name]["pool"])


class PredictedTowers(unittest.TestCase):
    """The depth histogram and tower-repeat share come from the generator's
    own prediction; ortho3's actual working towers must agree with it."""

    def _exact_items(self):
        deep = [it for it in W.build("exact_deep", 6) if it.depth == 3]
        rational = [it for it in W.build("exact_rational", 6) if not it.sibling]
        return rational + deep

    def test_traced_depth_matches_prediction(self):
        items = self._exact_items()
        depths = run.trace_items(items)[2]
        self.assertEqual(depths, [it.depth for it in items])

    def test_equal_keys_mean_equal_working_towers(self):
        towers: dict = {}
        for item in self._exact_items():
            M, dec, _ = item.run()
            scalars = list(M.entries) + (list(dec.axis.vec) if dec.axis else [])
            fields = [s.field for s in scalars if hasattr(s, "field")]
            field = max(fields, key=lambda f: f.depth) if fields else "TowerField(Q)"
            towers.setdefault(item.key, set()).add(repr(field) if fields else field)
        for key, seen in towers.items():
            self.assertEqual(len(seen), 1, key)
        self.assertEqual(len({next(iter(s)) for s in towers.values()}), len(towers))


class Tracing(unittest.TestCase):
    def test_counts_repeat_across_traced_runs(self):
        for name in W.WORKLOADS:
            with self.subTest(name):
                first = run.trace_items(_sample(name, 3))
                second = run.trace_items(_sample(name, 3))
                self.assertEqual(first[0].counts(), second[0].counts())
                self.assertEqual(first[2], second[2])  # per-item tower depths

    def test_driven_layers_report_calls(self):
        for name in W.WORKLOADS:
            with self.subTest(name):
                tracer = run.trace_items(_sample(name, 3))[0]
                calls = tracer.layer_calls()
                for layer in run.DRIVEN[name]:
                    self.assertGreater(calls.get(layer, 0), 0, layer)

    def test_float_mix_leaves_qfield_idle(self):
        calls = run.trace_items(_sample("float_mix", 3))[0].layer_calls()
        for layer in ("interval", "tower", "expr", "cli"):
            self.assertEqual(calls.get(layer, 0), 0, layer)

    def test_install_covers_aliases_and_uninstall_restores(self):
        import ortho3
        import ortho3.cli
        import ortho3.linalg3
        import ortho3.qfield.tower as tower

        before_cli = ortho3.cli.classify
        before_matmul = vars(ortho3.linalg3.Mat3)["__matmul__"]
        before_rmul = vars(tower.TowerElem)["__rmul__"]
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertEqual(tracer.unwrapped_bindings(), [])
            self.assertIs(vars(tower.TowerElem)["__rmul__"], vars(tower.TowerElem)["__mul__"])
            self.assertIs(ortho3.tower_sqrt, tower.sqrt)
        finally:
            tracer.uninstall()
        self.assertIs(ortho3.cli.classify, before_cli)
        self.assertIs(vars(ortho3.linalg3.Mat3)["__matmul__"], before_matmul)
        self.assertIs(vars(tower.TowerElem)["__rmul__"], before_rmul)
        self.assertFalse(hasattr(ortho3.tower_sqrt, "__wrapped__"))

    def test_self_time_excludes_children(self):
        tracer, outputs, _, _ = run.trace_items(_sample("exact_rational", 4))
        self.assertGreater(tracer.self_s["isometry.classify"], 0.0)
        busy = sum(elapsed for elapsed, _, _ in outputs)
        self.assertLessEqual(sum(tracer.self_s.values()), busy)


class Oracle(unittest.TestCase):
    def test_every_sample_item_checks(self):
        for name in W.WORKLOADS:
            for item in _sample(name, 5):
                with self.subTest(name=name, item=item.spec[:80]):
                    if item.sibling:
                        continue
                    item.check(item.run())

    def test_wrong_exact_value_is_caught(self):
        import ortho3

        x = ortho3.parse_scalar("1/2 + sqrt(3)/5")
        O.check_equal(x, O.Expect({1: O.Fraction(1, 2), 3: O.Fraction(1, 5)}), "x")
        with self.assertRaises(O.Mismatch):
            O.check_equal(x, O.Expect({1: O.Fraction(1, 2), 3: O.Fraction(1, 6)}), "x")
        y = ortho3.tower_sqrt(ortho3.parse_scalar("2 + sqrt(3)"))
        O.check_equal(y, O.Expect({}, None, O.mq(1), None, {1: O.Fraction(2), 3: O.Fraction(1)}), "y")
        with self.assertRaises(O.Mismatch):
            O.check_equal(-y, O.Expect({}, None, O.mq(1), None, {1: O.Fraction(2), 3: O.Fraction(1)}), "y")

    def test_wrong_float_matrix_is_caught(self):
        item = next(it for it in W.build("float_mix", 5) if it.category == "general")
        M, dec, M2 = item.run()
        bent = type(M)(tuple(e + (1e-9 if i == 1 else 0.0) for i, e in enumerate(M.entries)))
        with self.assertRaises(O.Mismatch):
            item.check((bent, dec, M2))


class Contract(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "float_mix", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_benchmark_json_names_every_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        tracer = run.trace_items(_sample("float_mix", 1))[0]
        names = set(tracer.metrics(1, [0])) | {"trace.overhead_frac", "setup.bare_interpreter_s"}
        names |= {f"import.{m}.self_ms" for m in run.MODULES}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, names)
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run._per_layer_unit(m["name"]), m["name"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(W.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
