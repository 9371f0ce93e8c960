"""Self-test of the benchmark's references, checks and workload construction.

Run from the repository root (takes a few seconds):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import checks
import run
import tracer
from workloads import WORKLOADS, Op, build_ops

GOLDEN_M5 = [1, 5, 15, 35, 70]  # column 1 of X for m = 5, gamma = 5


def small_op(command: str, extra: list[str], m: int = 5, gamma: int = 5, upper: bool = False,
             output: str | None = None) -> Op:
    flags = ["-m", str(m), "-c", f"{gamma}.0"] + (["--upper"] if upper else [])
    return Op(kind=command, argv=tuple([command] + flags + extra), m=m, gamma=Fraction(gamma),
              b=1.0, c=float(gamma), upper=upper, output=output)


class References(unittest.TestCase):
    def test_golden_column(self):
        self.assertEqual(checks.growth_terms(Fraction(5), 4), GOLDEN_M5)

    def test_growth_terms_are_binomials(self):
        for g in (1, 3, 50):
            z = checks.growth_terms(Fraction(g), 30)
            self.assertEqual(z, [math.comb(g + k - 1, k) for k in range(31)])
        half = checks.growth_terms(Fraction(3, 2), 3)
        self.assertEqual(half, [1, Fraction(3, 2), Fraction(15, 8), Fraction(35, 16)])

    def test_naive_overflow_prediction(self):
        # 692 of 1000 columns overflow at m = gamma = 1000; one sits within a factor 2
        totals = checks.growth_terms(Fraction(1001), 999)
        over = sum(t > checks.OMEGA for t in totals)
        near = sum(checks.OMEGA // 2 < t < 2 * checks.OMEGA for t in totals)
        self.assertEqual((over, near), (692, 1))


class CorruptedReports(unittest.TestCase):
    """Real reports pass their check; a one-field corruption of each fails it."""

    @classmethod
    def setUpClass(cls):
        run.OUT.mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=run.OUT)
        cls.work = Path(cls.tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def produce(self, op: Op) -> tuple[int, str, str | None]:
        rc, _, _, stdout = run.run_child(op.argv, self.work)
        output = None
        if op.output is not None:
            path = self.work / op.output
            output = path.read_text()
            path.unlink()
        return rc, stdout.decode(), output

    def assert_corruption_fails(self, op: Op, corrupt):
        rc, stdout, output = self.produce(op)
        self.assertEqual(checks.check_op(op, rc, stdout, output), [])
        if output is None:
            stdout = corrupt(stdout)
        else:
            output = corrupt(output)
        self.assertNotEqual(checks.check_op(op, rc, stdout, output), [])

    def test_eig_golden_and_corrupt(self):
        op = small_op("eig", ["--method", "extended"])
        rc, stdout, _ = self.produce(op)
        col1 = json.loads(stdout)["columns"][0]
        self.assertAlmostEqual(col1["max_log2"], math.log2(GOLDEN_M5[-1]), places=12)

        def bump(text):
            rep = json.loads(text)
            rep["columns"][0]["max_log2"] += 0.01
            return json.dumps(rep)

        self.assert_corruption_fails(op, bump)

    def test_naive_status_corrupt(self):
        op = small_op("eig", ["--method", "naive"], m=700, gamma=700, upper=True)

        def flip_status(text):
            rep = json.loads(text)
            col = rep["columns"][-1]  # upper: the last column is the full-length one
            col["status"] = "ok" if col["status"] != "ok" else "overflow-detected"
            return json.dumps(rep)

        self.assert_corruption_fails(op, flip_status)

    def test_cond_corrupt(self):
        def inflate(text):
            rep = json.loads(text)
            rep["reports"][2]["kappa_exact"] = rep["reports"][2]["kappa_bound"] * 1.01
            return json.dumps(rep)

        self.assert_corruption_fails(small_op("cond", [], m=8, gamma=8), inflate)

    def test_x_json_corrupt(self):
        op = small_op("gen", ["--what", "X", "--format", "json", "-o", "x.json"],
                      m=9, gamma=9, upper=True, output="x.json")
        self.assert_corruption_fails(op, lambda text: text.replace('"9/1"', '"10/1"', 1))

    def test_mtx_corrupt(self):
        op = small_op("gen", ["--what", "A", "--mm-format", "coordinate", "-o", "a.mtx"],
                      m=6, gamma=6, output="a.mtx")
        self.assert_corruption_fails(op, lambda text: text.replace("-6.0", "-6.5", 1))

    def test_changed_repeat_fails(self):
        judge = run.Judge(self.work)
        op = small_op("growth", ["--expect", "pass"])
        rc, stdout, _ = self.produce(op)
        for tail in ("", "", " "):
            judge.record(op, rc, (stdout + tail).encode())
        attempted, failed, problems = judge.verdict()
        self.assertEqual((attempted, failed), (3, 1), problems)


class Workloads(unittest.TestCase):
    def test_seed_changes_argv_not_work(self):
        def work(ops):
            def flag(op, name):
                return op.argv[op.argv.index(name) + 1] if name in op.argv else None

            # verify's --seed sets the sizes of its random cases, so it is work
            return sorted((op.kind, op.command, op.m, op.gamma, flag(op, "--trials"),
                           flag(op, "--seed") if op.command == "verify" else None)
                          for op in ops)

        for name in WORKLOADS:
            a, b = build_ops(name, 1), build_ops(name, 2)
            self.assertNotEqual([op.argv for op in a], [op.argv for op in b], name)
            self.assertEqual(work(a), work(b), name)
            self.assertEqual([op.argv for op in a], [op.argv for op in build_ops(name, 1)])

    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, tracer.PER_LAYER)


if __name__ == "__main__":
    if not (run.SRC / "trigrow" / "cli.py").is_file():
        sys.exit(f"no trigrow source tree at {run.SRC}")
    unittest.main()
