"""Each output check passes on a real output and fails once that output is corrupted.

Run from the repository root with `python3 -m pytest bench/test_checks.py`
or `python3 -m unittest discover -s bench -p "test_*.py"`. One operation of
each workload runs in-process to produce the genuine outputs.
"""

from __future__ import annotations

import copy
import csv
import io
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads as W  # noqa: E402
import worker  # noqa: E402

SEED = 5


def _one_output(workload: str) -> dict:
    worker.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=worker.OUT))
    try:
        wl = worker.WORKLOAD_CLASSES[workload](SEED, 1, workdir)
        return wl.output(0, wl.run(0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _edit_rows(out: dict, edit) -> dict:
    rows = list(csv.DictReader(io.StringIO(out["csv"])))
    for row in rows:
        edit(row)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return {**out, "csv": buf.getvalue()}


class AuditCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = _one_output("audit")
        cls.mean = cls.out["rules"].index("mean")

    def problems(self, out):
        return checks.check_audit(SEED, 0, out)

    def test_real_output_passes(self):
        self.assertEqual(self.problems(self.out), [])
        self.assertTrue(self.out["individual"][self.mean])

    def test_finding_for_a_strategyproof_rule_fails(self):
        out = copy.deepcopy(self.out)
        out["individual"][0].append(out["individual"][self.mean][0])
        self.assertTrue(self.problems(out))

    def test_finding_whose_cost_does_not_drop_fails(self):
        out = copy.deepcopy(self.out)
        finding = out["joint"][self.mean][0]
        finding[2], finding[4] = finding[1], finding[3]  # "misreport" the truth, at the truthful cost
        problems = self.problems(out)
        self.assertTrue(problems)
        self.assertIn("no strict gain", problems[0])

    def test_misreported_cost_fails(self):
        out = copy.deepcopy(self.out)
        out["individual"][self.mean][-1][4] *= 0.99
        self.assertTrue(self.problems(out))

    def test_missing_reflection_finding_fails(self):
        out = copy.deepcopy(self.out)
        out["individual"][self.mean] = [f for f in out["individual"][self.mean] if f[0] != [0]]
        self.assertTrue(self.problems(out))


class SweepCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = _one_output("sweep")

    def problems(self, out):
        return checks.check_sweep(SEED, 0, out)

    def test_real_output_passes(self):
        self.assertEqual(self.problems(self.out), [])

    def test_optimum_raised_by_one_percent_fails(self):
        def raise_optimum(row):
            if row["objective"] == "iif1":
                row["optimal_value"] = repr(float(row["optimal_value"]) * 1.01)
                row["ratio"] = repr(float(row["mechanism_value"]) / float(row["optimal_value"]))

        self.assertTrue(self.problems(_edit_rows(self.out, raise_optimum)))

    def test_optimum_lowered_below_attainable_fails(self):
        def lower_optimum(row):
            if row["objective"] == "magc":
                row["optimal_value"] = repr(float(row["optimal_value"]) * 0.99)

        self.assertTrue(self.problems(_edit_rows(self.out, lower_optimum)))

    def test_wrong_rule_value_fails(self):
        def shift_value(row):
            if (row["mechanism"], row["objective"]) == ("nrm", "iif2"):
                row["mechanism_value"] = repr(float(row["mechanism_value"]) * 1.001)

        self.assertTrue(self.problems(_edit_rows(self.out, shift_value)))

    def test_ratio_above_its_bound_fails(self):
        def break_bound(row):
            if (row["mechanism"], row["objective"]) == ("mgdm", "mtgc"):
                row["ratio"] = "3.5"

        self.assertTrue(self.problems(_edit_rows(self.out, break_bound)))


class SearchCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = _one_output("search")

    def problems(self, out):
        return checks.check_search(SEED, 0, out)

    def test_real_output_passes(self):
        self.assertEqual(self.problems(self.out), [])

    def test_ratio_above_its_bound_fails(self):
        out = copy.deepcopy(self.out)
        out["pairs"][W.SEARCH_PAIRS.index(("nrm", "magc"))]["best_ratio"] = 2.1
        self.assertTrue(self.problems(out))

    def test_ratio_below_the_seeded_family_fails(self):
        out = copy.deepcopy(self.out)
        out["pairs"][W.SEARCH_PAIRS.index(("mgdm", "mtgc"))]["best_ratio"] = 2.9
        self.assertTrue(self.problems(out))

    def test_ratio_the_reference_cannot_reproduce_fails(self):
        out = copy.deepcopy(self.out)
        pair = out["pairs"][W.SEARCH_PAIRS.index(("kldm:1", "iif1"))]
        pair["best_ratio"] = min(4.0, pair["best_ratio"] * 1.01)
        self.assertTrue(self.problems(out))


if __name__ == "__main__":
    unittest.main()
