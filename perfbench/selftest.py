#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selftest.py

They check that the reference rejects wrong answers, that every metric
named in BENCHMARK.json is printed, and that the benchmark refuses to run
without the pqsurf sources.  The file is named so that pytest does not
collect it with the program's own tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference as ref  # noqa: E402
import workloads  # noqa: E402


def pqsurf_json(argv: list) -> dict:
    from pqsurf import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class ReferenceRejectsWrongAnswers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.work = HERE / "out" / "selftest"
        cls.work.mkdir(parents=True, exist_ok=True)
        cls.path = cls.work / "z2_k3.pq"
        words = ["t"] * 6
        workloads.write_pq(cls.path, 2, [("t", (1, 0))], words, words)
        cls.invariants = pqsurf_json(["invariants", str(cls.path), "--json"])
        cls.bounds = pqsurf_json(["bounds", str(cls.path), "--json"])

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def test_program_output_passes(self):
        want = ref.many_points_expected(3)
        self.assertEqual(ref.check_invariants(self.invariants, want), [])
        self.assertEqual(ref.check_bounds(self.bounds, want), [])
        general = ref.surface_reference(*ref.read_pq(self.path.read_text()))
        self.assertEqual(ref.check_invariants(self.invariants, general), [])
        self.assertEqual(ref.check_bounds(self.bounds, general), [])

    def test_ksq_off_by_one_is_rejected(self):
        want = ref.many_points_expected(3)
        for delta in (1, -1):
            wrong = dict(self.invariants, Ksq=self.invariants["Ksq"] + delta)
            self.assertTrue(any("Ksq" in e for e in ref.check_invariants(wrong, want)))

    def test_node_count_off_by_one_is_rejected(self):
        want = ref.many_points_expected(3)
        for delta in (1, -1):
            sings = [dict(s, count=s["count"] + delta) for s in self.invariants["singularities"]]
            wrong = dict(self.invariants, singularities=sings)
            self.assertTrue(any("singularities" in e for e in ref.check_invariants(wrong, want)))

    def test_closed_forms_agree_on_the_a6_system(self):
        gens1 = [ref.from_cycles(c, workloads.A6_DEGREE) for c in workloads.A6_SYSTEM1]
        gens2 = [ref.from_cycles(c, workloads.A6_DEGREE) for c in workloads.A6_SYSTEM2]
        got = ref.surface_reference(gens1, gens2)
        self.assertEqual((got["g1"], got["g2"]), (10, 16))
        self.assertEqual(got["invariants"]["e"], 10)
        self.assertEqual(got["invariants"]["Ksq"], 2)
        self.assertEqual(got["invariants"]["chi"], 1)
        wrong = {"group_order": 360, "g1": 10, "g2": 16, "e": 10, "Ksq": 3, "chi": 1, "q": 0,
                 "pg": 0, "singularities": [{"n": n, "a": a, "count": c} for n, a, c in got["singularities"]]}
        self.assertTrue(ref.check_invariants(wrong, got))

    def test_wrong_genus_in_a_bound_report_is_rejected(self):
        curves = [dict(c) for c in self.bounds["curves"]]
        curves[2]["genus"] += 1
        wrong = dict(self.bounds, curves=curves)
        self.assertTrue(ref.check_bounds(wrong, ref.many_points_expected(3)))


class MetricOutput(unittest.TestCase):
    def test_every_metric_of_benchmark_json_is_printed(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "0",
                                     "--trace", str(trace))
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(sorted(result["metrics"]), sorted(names[trace]))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], units[name])
                        if trace == 0:
                            self.assertGreater(metric["value"], 0)

    def test_refuses_to_run_without_the_sources(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_bench("--workload", "big_group", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
