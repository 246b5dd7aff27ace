"""Tests for fairness metrics, distribution helpers, and airtime tracking."""

from __future__ import annotations

import random

import pytest

from repro.analysis.fairness import jain_index
from repro.analysis.stats import (
    AirtimeTracker,
    betainc,
    cdf_points,
    mean_interval,
    percentile,
    student_t_cdf,
    student_t_ppf,
    summarize,
)
from repro.telemetry.streaming import QuantileSketch


class TestJainIndex:
    def test_perfect_fairness(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_total_unfairness_approaches_one_over_n(self):
        assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1 / 3)

    def test_paper_fifo_case(self):
        """FIFO airtime shares (~10/11/79%) give an index around 0.5."""
        assert jain_index([0.10, 0.11, 0.79]) == pytest.approx(0.51, abs=0.03)

    def test_empty_and_zero_inputs(self):
        assert jain_index([]) == 1.0
        assert jain_index([0.0, 0.0]) == 1.0

    def test_scale_invariance(self):
        assert jain_index([1, 2, 3]) == pytest.approx(jain_index([10, 20, 30]))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            jain_index([1.0, -1.0])

    def test_single_sample_is_perfectly_fair(self):
        assert jain_index([42.0]) == pytest.approx(1.0)

    def test_all_equal_is_exactly_one(self):
        assert jain_index([0.25] * 4) == 1.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            jain_index([1.0, float("nan"), 2.0])


class TestPercentile:
    def test_median_of_odd_list(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 50) == 5.0

    def test_extremes(self):
        data = list(range(101))
        assert percentile(data, 0) == 0
        assert percentile(data, 100) == 100

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_pct_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_single_sample_is_every_percentile(self):
        assert percentile([7.0], 0) == 7.0
        assert percentile([7.0], 50) == 7.0
        assert percentile([7.0], 100) == 7.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            percentile([1.0, float("nan")], 50)


class TestCdfAndSummary:
    def test_cdf_points_are_monotone(self):
        points = cdf_points([5, 1, 3])
        values = [v for v, _ in points]
        probs = [p for _, p in points]
        assert values == sorted(values)
        assert probs == [pytest.approx(1 / 3), pytest.approx(2 / 3), 1.0]

    def test_summary_fields(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.median == pytest.approx(2.5)

    def test_summary_of_empty(self):
        s = summarize([])
        assert s.count == 0

    def test_summary_of_single_sample(self):
        s = summarize([3.5])
        assert s.count == 1
        assert s.mean == s.median == s.p10 == s.p99 == 3.5


def book(tracker, station, airtime, downlink=True, n=1, payload=1500,
         success=True):
    """One transmission, as the testbed's medium observer books it."""
    tracker.on_tx(0.0, station, airtime, airtime, downlink, n, payload,
                  success)


class TestAirtimeTracker:
    def test_downlink_and_uplink_both_counted(self):
        tracker = AirtimeTracker()
        book(tracker, 0, 100.0, downlink=True)
        book(tracker, 0, 50.0, downlink=False)
        assert tracker.airtime_us[0] == 150.0
        assert tracker.downlink_airtime_us[0] == 100.0
        assert tracker.uplink_airtime_us[0] == 50.0

    def test_shares_sum_to_one(self):
        tracker = AirtimeTracker()
        book(tracker, 0, 300.0)
        book(tracker, 1, 100.0)
        shares = tracker.airtime_shares([0, 1])
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares[0] == pytest.approx(0.75)

    def test_failed_tx_costs_airtime_but_delivers_nothing(self):
        tracker = AirtimeTracker()
        book(tracker, 0, 100.0, success=False)
        assert tracker.airtime_us[0] == 100.0
        assert tracker.delivered_bytes[0] == 0

    def test_mean_aggregation(self):
        tracker = AirtimeTracker()
        book(tracker, 0, 100.0, n=10)
        book(tracker, 0, 100.0, n=20)
        assert tracker.mean_aggregation(0) == 15.0
        assert tracker.mean_aggregation(9) == 0.0

    def test_throughput_computation(self):
        tracker = AirtimeTracker()
        book(tracker, 0, 100.0, payload=125_000)
        assert tracker.throughput_bps(0, 1_000_000.0) == pytest.approx(1e6)

    def test_reset_zeroes_everything(self):
        tracker = AirtimeTracker()
        book(tracker, 0, 100.0)
        tracker.reset()
        assert tracker.airtime_us == {}
        assert not any(vars(tracker).values())

    def test_jain_over_requested_stations(self):
        tracker = AirtimeTracker()
        book(tracker, 0, 100.0)
        # Station 1 never transmitted: counted as zero.
        assert tracker.jain_airtime([0, 1]) == pytest.approx(0.5)


class TestDistributionPrimitives:
    """The pure-Python distribution functions against published tables."""

    def test_betainc_known_values(self):
        assert betainc(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-12)
        # I_x(a, b) symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
        assert betainc(2.0, 5.0, 0.4) == pytest.approx(
            1.0 - betainc(5.0, 2.0, 0.6), abs=1e-12
        )
        assert betainc(2.0, 3.0, 0.0) == 0.0
        assert betainc(2.0, 3.0, 1.0) == 1.0

    def test_t_cdf_symmetry_and_known_values(self):
        assert student_t_cdf(0.0, 7) == pytest.approx(0.5, abs=1e-12)
        # df=1 is Cauchy: F(1) = 3/4 exactly.
        assert student_t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-9)
        for t, df in [(1.3, 4), (2.1, 17)]:
            assert student_t_cdf(-t, df) == pytest.approx(
                1.0 - student_t_cdf(t, df), abs=1e-12
            )

    def test_t_ppf_matches_t_tables(self):
        # Standard two-sided 95% critical values.
        for df, expect in [(1, 12.7062), (2, 4.3027), (10, 2.2281),
                           (30, 2.0423)]:
            assert student_t_ppf(0.975, df) == pytest.approx(
                expect, abs=2e-4
            )
        # Round-trips through the CDF, and is odd about the median.
        t = student_t_ppf(0.9, 6)
        assert student_t_cdf(t, 6) == pytest.approx(0.9, abs=1e-9)
        assert student_t_ppf(0.1, 6) == -t


class TestMeanInterval:
    def test_below_two_samples_is_unbounded(self):
        assert mean_interval(0, 0.0, 0.0) is None
        assert mean_interval(1, 5.0, 0.0) is None

    def test_zero_variance_is_zero_width(self):
        interval = mean_interval(5, 3.0, 0.0)
        assert (interval.lo, interval.hi) == (3.0, 3.0)
        assert interval.half_width == 0.0

    def test_half_width_formula(self):
        # n=4, s^2=1: hw = t_{0.975,3} / 2.
        interval = mean_interval(4, 10.0, 1.0, confidence=0.95)
        expect = student_t_ppf(0.975, 3) / 2.0
        assert interval.half_width == pytest.approx(expect, rel=1e-9)
        assert interval.lo == pytest.approx(10.0 - expect, rel=1e-9)

    def test_sketch_interval_equals_direct(self):
        """A sketch's exact moments give the interval of the raw values."""
        values = [9.5, 10.2, 10.0, 10.8, 9.9]
        sketch = QuantileSketch(64)
        sketch.observe_many(values)
        via_sketch = mean_interval(sketch.count, sketch.mean,
                                   sketch.variance)
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        direct = mean_interval(len(values), mean, var)
        assert via_sketch.lo == pytest.approx(direct.lo, rel=1e-9)
        assert via_sketch.hi == pytest.approx(direct.hi, rel=1e-9)

    def test_t_interval_coverage_on_normal(self):
        """Monte-Carlo: nominal 95% coverage on Normal data, n=8."""
        rng = random.Random(1234)
        trials, hits = 800, 0
        for _ in range(trials):
            xs = [rng.gauss(5.0, 2.0) for _ in range(8)]
            mean = sum(xs) / len(xs)
            var = sum((v - mean) ** 2 for v in xs) / (len(xs) - 1)
            interval = mean_interval(len(xs), mean, var, 0.95)
            if interval.lo <= 5.0 <= interval.hi:
                hits += 1
        coverage = hits / trials
        assert 0.91 <= coverage <= 0.985, coverage
