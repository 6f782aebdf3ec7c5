"""Tests of the summarizer on known inputs.

    python3 perfbench/test_summary.py
"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import summary  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        xs = [10, 20, 30, 40, 50]
        self.assertEqual(summary.percentile(xs, 0), 10)
        self.assertEqual(summary.percentile(xs, 100), 50)
        self.assertEqual(summary.percentile(xs, 50), 30)
        self.assertAlmostEqual(summary.percentile(xs, 10), 14.0)
        self.assertAlmostEqual(summary.percentile(xs, 99), 49.6)

    def test_order_does_not_matter(self):
        self.assertEqual(summary.percentile([3, 1, 2], 50), 2)

    def test_single_value(self):
        self.assertEqual(summary.percentile([7.5], 99), 7.5)

    def test_empty_raises(self):
        with self.assertRaises(ValueError):
            summary.percentile([], 50)

    def test_median_of_even_count(self):
        self.assertEqual(summary.median([4, 1, 3, 2]), 2.5)

    def test_p99_of_1_to_1000(self):
        xs = list(range(1, 1001))
        self.assertAlmostEqual(summary.percentile(xs, 99), 990.01)


class SpreadTest(unittest.TestCase):
    def test_quartiles_match_statistics_module(self):
        xs = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(summary.quartiles(xs), tuple(statistics.quantiles(xs, n=4)))
        # Exclusive method: q1 at rank 0.25 * 11 = 2.75, q3 at 8.25.
        self.assertEqual(summary.quartiles(xs), (2.75, 5.5, 8.25))

    def test_spread_is_iqr_over_median(self):
        xs = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertAlmostEqual(summary.spread(xs), (8.25 - 2.75) / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(summary.spread([1.0] * 10), 0.0)
        self.assertEqual(summary.spread([3.0]), 0.0)


class SpanTest(unittest.TestCase):
    # request 0: root [0, 100) with children [10, 40) and [50, 90);
    # request 1: root [100, 150) with no children.
    NAMES = ["request", "child"]
    SPANS = [
        [0, 0, -1, 0, 100],
        [1, 0, 0, 10, 40],
        [1, 0, 0, 50, 90],
        [0, 1, -1, 100, 150],
    ]

    def test_self_time_and_coverage(self):
        table = summary.span_table(self.NAMES, self.SPANS)
        self.assertEqual(table["request"]["calls"], 2)
        self.assertEqual(table["request"]["total_ns"], 150)
        self.assertEqual(table["request"]["self_ns"], 80)
        self.assertAlmostEqual(table["request"]["coverage"], 70 / 150)
        self.assertEqual(table["child"]["self_ns"], 70)
        self.assertEqual(table["child"]["coverage"], 0.0)

    def test_per_request_sums(self):
        sums = summary.per_request_ns(self.NAMES, self.SPANS)
        self.assertEqual(dict(sums["request"]), {0: 100, 1: 50})
        self.assertEqual(dict(sums["child"]), {0: 70})


if __name__ == "__main__":
    unittest.main()
