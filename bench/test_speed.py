"""Scaling step times to the reference speed.

Run from the repository root with `python3 -m pytest bench/test_speed.py`.
"""

from __future__ import annotations

import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402


def _report(steps_ms, step_op, speed_ms, failed_ops=()):
    return {"steps_ms": steps_ms, "step_op": step_op, "speed_ms": speed_ms, "failed_ops": list(failed_ops)}


class TestOpTimes(unittest.TestCase):
    def test_steady_machine_scales_by_reference_over_kernel_time(self):
        kernel_ms = speed.REFERENCE_MS * 2
        wall, scaled = speed.op_times(_report([10.0, 30.0, 20.0], [0, 0, 1], [kernel_ms] * 4))
        self.assertEqual(wall, [40.0, 20.0])
        self.assertEqual(scaled, [20.0, 10.0])

    def test_a_slower_program_reads_slower_at_the_same_speed(self):
        kernel = [3.0, 3.5, 2.5, 3.0, 4.0]
        _, base = speed.op_times(_report([100.0, 100.0, 100.0, 100.0], [0, 1, 2, 3], kernel))
        _, slow = speed.op_times(_report([120.0, 120.0, 120.0, 120.0], [0, 1, 2, 3], kernel))
        for b, s in zip(base, slow):
            self.assertAlmostEqual(s / b, 1.2)

    def test_a_slower_machine_cancels_out(self):
        # Every step and every kernel sample twice as slow: the same scaled times.
        _, fast = speed.op_times(_report([50.0, 70.0], [0, 1], [2.0, 2.0, 2.0]))
        _, slow = speed.op_times(_report([100.0, 140.0], [0, 1], [4.0, 4.0, 4.0]))
        self.assertEqual(fast, slow)

    def test_failed_operations_are_left_out(self):
        wall, scaled = speed.op_times(_report([10.0, 5.0, 10.0], [0, 1, 2], [1.0] * 4, failed_ops=[1]))
        self.assertEqual(wall, [10.0, 10.0])
        self.assertEqual(len(scaled), 2)

    def test_local_speed_is_the_median_of_the_samples_around_a_step(self):
        samples = [1.0, 9.0, 2.0, 3.0, 100.0]
        # Step 2 ran between samples 2 and 3; the window takes WINDOW on each side.
        window = samples[max(0, 2 - speed.WINDOW + 1) : 2 + speed.WINDOW + 1]
        self.assertIn(samples[2], window)
        self.assertIn(samples[3], window)
        self.assertEqual(speed.local_speed(samples, 2), statistics.median(window))
        # One burst among the samples does not set the speed.
        self.assertLess(speed.local_speed(samples, 3), 100.0)


if __name__ == "__main__":
    unittest.main()
