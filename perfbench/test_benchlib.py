"""Tests for the benchmark's own helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchlib  # noqa: E402
import run  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_median_and_p99_with_enough_samples(self):
        xs = list(range(1, 1001))  # 1..1000
        med, tail, q, n = benchlib.summarize(xs)
        self.assertEqual(med, 500.5)
        self.assertEqual(q, 0.99)
        self.assertEqual(tail, 990)
        self.assertEqual(sum(1 for x in xs if x > tail), 10)
        self.assertEqual(n, 1000)

    def test_tail_backs_off_to_keep_ten_samples_beyond(self):
        xs = list(range(1, 401))
        _, tail, q, _ = benchlib.summarize(xs)
        self.assertAlmostEqual(q, 0.975)
        self.assertEqual(sum(1 for x in xs if x > tail), 10)

    def test_never_more_than_asked(self):
        self.assertEqual(benchlib.tail_quantile(100000), 0.99)
        self.assertEqual(benchlib.tail_quantile(100000, want=0.9), 0.9)

    def test_too_few_samples_fall_back_to_the_median(self):
        self.assertEqual(benchlib.tail_quantile(20), 0.5)
        med, tail, q, _ = benchlib.summarize([3, 1, 2])
        self.assertEqual((med, tail, q), (2, 2, 0.5))

    def test_order_does_not_matter(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0] * 50
        self.assertEqual(benchlib.summarize(xs), benchlib.summarize(sorted(xs)))

    def test_no_samples_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.summarize([])


class BestOfRepeats(unittest.TestCase):
    def test_keeps_each_inputs_fastest_repeat(self):
        # Two samples per iteration; input 1 runs twice, input 0 once.
        samples = [5.0, 9.0, 2.0, 3.0, 4.0, 8.0]
        self.assertEqual(benchlib.best_of_repeats(samples, [1, 0, 1]),
                         [2.0, 3.0, 4.0, 8.0])

    def test_rates_keep_the_highest(self):
        self.assertEqual(benchlib.best_of_repeats([3, 7, 5], [0, 0, 1], pick=max),
                         [7, 5])

    def test_distinct_inputs_pass_through(self):
        self.assertEqual(benchlib.best_of_repeats([1, 2, 3, 4], [0, 1]), [1, 2, 3, 4])

    def test_blocks_must_split_evenly(self):
        with self.assertRaises(ValueError):
            benchlib.best_of_repeats([1, 2, 3], [0, 1])
        with self.assertRaises(ValueError):
            benchlib.best_of_repeats([], [])


class Staircase(unittest.TestCase):
    def test_highest_pass_before_two_failures(self):
        steps = [(100, True), (106, True), (112, True), (119, False), (126, False),
                 (134, True)]
        self.assertEqual(benchlib.staircase_max(steps), 112)

    def test_a_single_failure_is_stepped_over(self):
        steps = [(100, True), (106, False), (112, True), (119, False), (126, False)]
        self.assertEqual(benchlib.staircase_max(steps), 112)

    def test_trailing_single_failure(self):
        self.assertEqual(benchlib.staircase_max([(100, True), (106, False)]), 100)

    def test_all_pass_reports_the_top(self):
        self.assertEqual(benchlib.staircase_max([(100, True), (106, True)]), 106)

    def test_nothing_passes(self):
        self.assertIsNone(benchlib.staircase_max([(100, False), (106, False)]))

    def test_steps_are_closer_than_a_tenth(self):
        driver = (Path(__file__).resolve().parent / "driver.cpp").read_text()
        ratio = float(driver.split("kRampRatio = ")[1].split(";")[0])
        self.assertGreater(ratio, 1.0)
        self.assertLess(ratio, 1.1)

    def test_step_criterion(self):
        fast = [1.0] * 200
        self.assertTrue(run.step_passes(fast, 0, 4))
        self.assertFalse(run.step_passes(fast, 5, 4))  # backlog grew
        self.assertFalse(run.step_passes([run.LATENCY_LIMIT_MS * 2] * 200, 0, 4))
        self.assertFalse(run.step_passes([], 0, 4))


class PeakRss(unittest.TestCase):
    def test_reads_the_childs_own_peak(self):
        # The child touches 64 MiB; its peak must show it, and the parent's
        # own (smaller or larger) footprint must not leak in.
        code = "b = bytearray(64 << 20)\nfor i in range(0, len(b), 4096): b[i] = 1\n"
        proc = subprocess.Popen([sys.executable, "-c", code],
                                stdout=subprocess.PIPE)
        proc.stdout.read()
        proc.stdout.close()
        exit_code, mb = benchlib.wait_peak_rss_mb(proc)
        self.assertEqual(exit_code, 0)
        self.assertGreaterEqual(mb, 64)
        self.assertLess(mb, 64 + 128)

    def test_exit_code_is_reported(self):
        proc = subprocess.Popen([sys.executable, "-c", "raise SystemExit(3)"],
                                stdout=subprocess.PIPE)
        proc.stdout.read()
        proc.stdout.close()
        self.assertEqual(benchlib.wait_peak_rss_mb(proc)[0], 3)


class MetricNames(unittest.TestCase):
    def test_valid(self):
        for name in ("setup_s", "query_p99_ms", "sched.stage.gate_us",
                     "util.pool.busy_hwm", "trace.overhead_pct", "9lives", "a-b"):
            self.assertTrue(benchlib.valid_metric_name(name), name)

    def test_invalid(self):
        for name in ("", "_x", ".x", "a b", "a/b", "µs", "x" * 65, None):
            self.assertFalse(benchlib.valid_metric_name(name), name)

    def test_every_declared_metric_is_valid_and_listed(self):
        spec = json.loads((Path(__file__).resolve().parent.parent /
                           "BENCHMARK.json").read_text())
        for group, table in (("end_to_end", run.END_TO_END),
                             ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in spec[group]}
            self.assertEqual(declared, table, group)
            for name in declared:
                self.assertTrue(benchlib.valid_metric_name(name), name)


class Spread(unittest.TestCase):
    def test_quartile_spread(self):
        self.assertAlmostEqual(benchlib.spread([10.0] * 10), 0.0)
        self.assertGreater(benchlib.spread([9, 10, 11, 9, 10, 11, 9, 10, 11, 10]), 0)


if __name__ == "__main__":
    unittest.main()
