"""Self-tests of the benchmark harness.

    python3 bench/selftest.py
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

import ops as ops_mod
import run
import spans
from workloads import WORKLOADS, build_ops

sys.path.insert(0, str(ops_mod.SRC))


class OpListTest(unittest.TestCase):
    def test_same_seed_same_list_other_seed_other_list(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(build_ops(workload, 7), build_ops(workload, 7))
                self.assertNotEqual(build_ops(workload, 7), build_ops(workload, 8))


class FakeRefs:
    def __init__(self, matrix):
        self.matrix = matrix

    def expected(self, op):
        return {"matrix": self.matrix}


class RoundTripTest(unittest.TestCase):
    def _record(self, text: str, matrix) -> dict:
        op = {"key": "kernel|csv|x", "command": "kernel", "format": "csv"}
        with tempfile.TemporaryDirectory() as tmp:
            out_path = Path(tmp) / "out.csv"
            out_path.write_text(text)
            res = {"wall": 1.0, "exit": 0, "stdout": b"", "stderr": ""}
            return run.check_cli_result(op, res, out_path, FakeRefs(matrix), {}, 0)

    def test_flipped_digit_fails_the_op(self):
        from askeychain.export import matrix_csv

        matrix = np.random.default_rng(0).random((4, 5))
        text = matrix_csv(matrix)
        self.assertIsNone(self._record(text, matrix)["failure"])
        pos = text.index(".") + 3  # a mantissa digit of the first entry
        flipped = text[:pos] + str((int(text[pos]) + 1) % 10) + text[pos + 1:]
        record = self._record(flipped, matrix)
        self.assertIn("round trip differs", record["failure"])
        self.assertEqual(record["wrong"], record["failure"])


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_union_of_children(self):
        tree = [
            ["root", None, 0.0, 10.0],
            ["a", 0, 1.0, 4.0],
            ["leaf", 1, 2.0, 3.0],
            ["b", 0, 3.0, 6.0],     # overlaps a: the union is counted once
            ["c", 0, 8.0, 12.0],    # clipped to the parent's end
        ]
        self.assertEqual(spans.self_times(tree), [3.0, 2.0, 1.0, 3.0, 4.0])
        totals = spans.layer_totals(tree + [["leaf", 3, 4.0, 4.5]])
        self.assertEqual(totals["leaf_calls"], 2)
        self.assertAlmostEqual(totals["leaf_s"], 1.5)
        self.assertAlmostEqual(totals["b_s"], 2.5)

    def test_importtime_parse(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |         scipy",
            "import time:       200 |        300 |       scipy.special",
            "import time:       400 |        700 |     askeychain.families",
            "import time:        50 |        750 |   askeychain",
            "import time:        10 |        760 | askeychain.cli",
        ])
        got = spans.parse_importtime(text)
        self.assertAlmostEqual(got["startup.import_askeychain_s"], 760e-6)
        self.assertAlmostEqual(got["startup.import_scipy_s"], 300e-6)


class TracerTest(unittest.TestCase):
    def test_wrapper_replaces_every_binding_and_is_undone(self):
        from askeychain import cli, markov

        original = markov.verify_kernel
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(markov.verify_kernel, original)
            self.assertIs(cli.verify_kernel, markov.verify_kernel)
        finally:
            tracer.uninstall()
        self.assertIs(markov.verify_kernel, original)
        self.assertIs(cli.verify_kernel, original)


if __name__ == "__main__":
    unittest.main()
