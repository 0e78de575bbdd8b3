"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, workload_legs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for name in [*run.END_TO_END, *run.PER_LAYER, *WORKLOADS]:
            self.assertRegex(name, NAME)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))


def _replace_row(text: str, index: int, transform) -> str:
    lines = text.splitlines(keepends=True)
    lines[2 + index] = transform(lines[2 + index])
    return "".join(lines)


class Checker(unittest.TestCase):
    def setUp(self):
        self.ref = (BENCH / "ref" / "mc_cer.baselines.csv").read_text()

    def test_reference_passes_against_itself(self):
        self.assertEqual(check.compare(self.ref, self.ref), [])

    def test_other_seed_in_echo_is_allowed(self):
        other = self.ref.replace(" seed=1 ", " seed=7 ")
        self.assertEqual(check.compare(other, self.ref), [])

    def test_rejects_cer_moved_by_ten_stderr(self):
        def move(line):
            cells = line.rstrip("\n").split(",")
            cells[9] = repr(float(cells[9]) + 10 * float(cells[10]))
            return ",".join(cells) + "\n"

        for i in range(3):
            with self.subTest(row=i):
                self.assertTrue(check.compare(_replace_row(self.ref, i, move), self.ref))

    def test_rejects_missing_row(self):
        self.assertTrue(check.compare(_replace_row(self.ref, 1, lambda line: ""), self.ref))

    def test_rejects_changed_configuration(self):
        self.assertTrue(check.compare(self.ref.replace("u=25", "u=24"), self.ref))


def _set_value(index: int, value: float):
    def transform(line):
        cells = line.rstrip("\n").split(",")
        cells[9] = repr(value)
        return ",".join(cells) + "\n"

    return lambda text: _replace_row(text, index, transform)


class PmeprChecker(unittest.TestCase):
    # Rows of the reference CSV: 1 uncoded K=8 p50, 3 its p99, 4 its p999,
    # 5 its mean, 6 its max; 23 uncoded K=32 p999.
    def setUp(self):
        self.ref, self.dist = run.load_ref("pmepr_dfts", WORKLOADS["pmepr_dfts"][0])
        self.values = [float(line.split(",")[9]) for line in self.ref.splitlines()[2:]]

    def test_reference_passes_against_itself(self):
        self.assertIsNotNone(self.dist)
        self.assertEqual(check.compare(self.ref, self.ref, self.dist), [])

    def test_quantile_on_the_next_atom_passes(self):
        # Uncoded K=8: the p99 of 10 000 codewords is the top PMEPR value
        # (its p999) when 101 or more codewords hit the two patterns that
        # share it, which happens on about 0.7% of seeds.
        other = _set_value(3, self.values[4])(self.ref)
        self.assertEqual(check.compare(other, self.ref, self.dist), [])

    def test_rejects_moved_quantile_mean_and_max(self):
        for index, delta in ((1, 0.3), (3, -0.5), (5, 0.1), (6, -1.0), (6, 3.0),
                             (23, 1.0)):
            with self.subTest(row=index, delta=delta):
                moved = _set_value(index, self.values[index] + delta)(self.ref)
                self.assertTrue(check.compare(moved, self.ref, self.dist))

    def test_needs_the_reference_distribution(self):
        self.assertTrue(check.compare(self.ref, self.ref, None))


def _span(sid, parent, start, end, name="x"):
    return (sid, name, parent, 0, start, end, None, None)


class SelfTime(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            _span(0, None, 0.0, 10.0),
            _span(1, 0, 1.0, 4.0),   # child
            _span(2, 0, 3.0, 6.0),   # child overlapping the first (another thread)
            _span(3, 1, 1.5, 2.5),   # grandchild: counts against span 1 only
            _span(4, 0, 9.0, 11.0),  # child running past its parent's end
        ]
        selfs = tracing.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - 5.0 - 1.0)
        self.assertAlmostEqual(selfs[1], 3.0 - 1.0)
        self.assertAlmostEqual(selfs[2], 3.0)
        self.assertAlmostEqual(selfs[3], 1.0)
        self.assertAlmostEqual(selfs[4], 2.0)

    def test_percentile(self):
        self.assertEqual(tracing.percentile([3, 1, 2], 0.5), 2)
        self.assertAlmostEqual(tracing.percentile([0, 10], 0.9), 9.0)


class Wrappers(unittest.TestCase):
    def test_wrappers_are_restored_and_missing_targets_reported(self):
        import airmv.cli
        import airmv.simulate

        before = {name: dict(vars(m)) for name, m in sys.modules.items()
                  if name == "airmv" or name.startswith("airmv.")}
        tracer = tracing.Tracer()
        targets = tracing.TARGETS + (tracing.Target("airmv.channel", "gone", "channel.gone"),)
        replaced, absent = tracing.install(tracer, targets)
        self.assertIsNot(airmv.simulate.superpose, before["airmv.simulate"]["superpose"])
        self.assertIsNot(airmv.median.superpose, before["airmv.median"]["superpose"])
        self.assertEqual(absent, {"channel.gone": "airmv.channel.gone not found"})
        with tempfile.TemporaryDirectory() as tmp:
            rc = airmv.cli.main(["cer", "--seed", "1", "--k", "8", "--trials", "50",
                                 "--n-plus", "3", "--u", "5", "--realizations", "0",
                                 "--out", str(Path(tmp) / "o.csv")])
        self.assertEqual(rc, 0)
        self.assertTrue(tracing.restore(replaced))
        for name, namespace in before.items():
            for key, value in namespace.items():
                self.assertIs(vars(sys.modules[name])[key], value, f"{name}.{key}")
        self.assertIn("channel.superpose", {s[tracing.NAME] for s in tracer.spans})


class TinyWorkloads(unittest.TestCase):
    def test_every_workload_runs_traced_and_untraced(self):
        workdir = Path(tempfile.mkdtemp(prefix="bench-test-"))
        try:
            runner = run.Runner(seed=3, workdir=workdir)
            for workload, legs in workload_legs(tiny=True).items():
                with self.subTest(workload=workload):
                    runs = run.measure(runner, workload, legs, 0.0, trace=True,
                                       check_refs=False)
                    run.check_determinism(runs)
                    self.assertEqual([r.problems for r in runs if not r.ok], [])
                    stats = run.leg_stats(runs, legs, traced=False)
                    e2e = run.end_to_end(stats, legs, setup_s=1.0)
                    self.assertTrue(all(v > 0 for v in e2e.values()), e2e)
                    layer, _ = run.per_layer(runs, legs, stats,
                                             run.leg_stats(runs, legs, traced=True), 0)
                    self.assertEqual(set(layer), set(run.PER_LAYER))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
