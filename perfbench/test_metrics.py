"""Tests of the benchmark's own arithmetic.

Run from the repository root: python3 -m unittest discover perfbench
"""

import math
import unittest

import metrics as M


class TailTest(unittest.TestCase):
    def test_keeps_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        value, pct, n = M.tail(values)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(n, 100)

    def test_order_does_not_matter(self):
        self.assertEqual(M.tail([5, 1, 4, 2, 3] * 4)[0],
                         M.tail(sorted([5, 1, 4, 2, 3] * 4))[0])

    def test_smallest_sample_with_a_tail(self):
        value, pct, n = M.tail(list(range(11)))
        self.assertEqual(value, 0)
        self.assertAlmostEqual(pct, 100.0 * 1 / 11)
        self.assertEqual(n, 11)

    def test_too_few_samples_fall_back_to_max(self):
        self.assertEqual(M.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            M.tail([])


class SqnrTest(unittest.TestCase):
    def test_ratio_in_db(self):
        self.assertAlmostEqual(M.sqnr_db(100.0, 1.0), 20.0)
        self.assertAlmostEqual(M.sqnr_db(2.0, 2.0), 0.0)
        self.assertAlmostEqual(M.sqnr_db(1.0, 10.0), -10.0)

    def test_exact_output_is_infinite(self):
        self.assertEqual(M.sqnr_db(1.0, 0.0), math.inf)

    def test_no_signal_is_an_error(self):
        with self.assertRaises(ValueError):
            M.sqnr_db(0.0, 1.0)


class SelfTimeTest(unittest.TestCase):
    def test_no_children(self):
        self.assertAlmostEqual(M.self_time(1.0, 4.0, []), 3.0)

    def test_disjoint_children(self):
        self.assertAlmostEqual(
            M.self_time(0.0, 10.0, [(1.0, 2.0), (5.0, 8.0)]), 6.0)

    def test_overlapping_children_count_once(self):
        self.assertAlmostEqual(
            M.self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (2.0, 5.0)]),
            5.0)

    def test_children_are_clipped_to_the_parent(self):
        self.assertAlmostEqual(
            M.self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0), (7.0, 8.0)]),
            2.0)

    def test_covered_plus_self_is_the_duration(self):
        kids = [(0.5, 1.5), (1.0, 2.5), (3.0, 3.25)]
        self.assertAlmostEqual(
            M.covered(0.0, 4.0, kids) + M.self_time(0.0, 4.0, kids), 4.0)


def rung(rate, tail_ms, failed=0, drain_ms=10.0, sustained=None):
    return {"rate": rate, "tail_ms": tail_ms, "failed": failed,
            "drain_ms": drain_ms,
            "sustained": rate if sustained is None else sustained}


class LadderWalkTest(unittest.TestCase):
    def test_interpolates_between_pass_and_miss(self):
        rungs = [rung(60, 900.0), rung(20, 60.0), rung(30, 100.0)]
        # 30 + (60 - 30) * (300 - 100) / (900 - 100)
        self.assertAlmostEqual(M.max_rate_at_slo(rungs, 300), 37.5)

    def test_rungs_sit_at_their_sustained_rate(self):
        rungs = [rung(30, 100.0, sustained=29.0),
                 rung(60, 500.0, sustained=45.0)]
        self.assertAlmostEqual(M.max_rate_at_slo(rungs, 300), 37.0)

    def test_every_rung_passing_gives_the_top_rung(self):
        rungs = [rung(10, 50.0), rung(20, 300.0, sustained=19.5)]
        self.assertAlmostEqual(M.max_rate_at_slo(rungs, 300), 19.5)

    def test_walk_stops_at_first_miss(self):
        rungs = [rung(10, 50.0), rung(20, 550.0), rung(30, 100.0)]
        self.assertAlmostEqual(M.max_rate_at_slo(rungs, 300), 15.0)

    def test_failed_request_stops_at_the_last_pass(self):
        rungs = [rung(10, 50.0), rung(20, 60.0, failed=1)]
        self.assertAlmostEqual(M.max_rate_at_slo(rungs, 300), 10.0)

    def test_growing_backlog_counts_as_latency(self):
        rungs = [rung(10, 100.0), rung(20, 250.0, drain_ms=1100.0)]
        self.assertFalse(M.rung_passes(rungs[1], 300))
        self.assertAlmostEqual(M.max_rate_at_slo(rungs, 300), 12.0)

    def test_first_rung_missing_interpolates_from_zero(self):
        self.assertAlmostEqual(
            M.max_rate_at_slo([rung(10, 600.0)], 300), 5.0)
        self.assertEqual(
            M.max_rate_at_slo([rung(10, 50.0, failed=2)], 300), 0.0)


if __name__ == "__main__":
    unittest.main()
