"""Campaign statistics: interval estimators and sequential stopping.

The statistical layer's promises, tested end to end:

* the pure-python distribution primitives match published tables,
* the t- and rank-interval estimators achieve (or conservatively
  exceed) their nominal coverage on known distributions,
* a precision campaign stops replicating converged grid points before
  the cap, and a killed precision sweep resumes to *byte-identical*
  merged output.

Cell functions live at module top level so pool workers can unpickle
references to them (same convention as tests/test_campaign.py).
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignEngine,
    CampaignSpec,
    campaign_status,
    evaluate_group,
    jain_interval,
    mean_interval,
    quantile_rank_interval,
    read_journal,
    sketch_mean_interval,
)
from repro.campaign.stats import (
    betainc,
    binomial_cdf,
    metric_matches,
    student_t_cdf,
    student_t_ppf,
)
from repro.telemetry.streaming import QuantileSketch


# ----------------------------------------------------------------------
# Cell functions (importable by forked workers)
# ----------------------------------------------------------------------
def noisy_cell(x: int = 1, scale: float = 1.0, seed: int = 0) -> dict:
    """Mean 10*x plus seeded Gaussian noise — deterministic per seed."""
    rng = random.Random(seed)
    return {"m": 10.0 * x + rng.gauss(0.0, scale), "aux": float(x)}


def interrupt_once_noisy_cell(spool: str = "", x: int = 1,
                              scale: float = 1.0, seed: int = 0) -> dict:
    """Raises KeyboardInterrupt the first time x=2 runs (marker-gated)."""
    marker = Path(spool) / "interrupt-once"
    if x == 2 and marker.exists():
        marker.unlink()
        raise KeyboardInterrupt
    return noisy_cell(x=x, scale=scale, seed=seed)


def _sketch(values) -> QuantileSketch:
    sketch = QuantileSketch(64)
    for value in values:
        sketch.observe(float(value))
    return sketch


# ----------------------------------------------------------------------
# Distribution primitives vs published tables
# ----------------------------------------------------------------------
class TestDistributionPrimitives:
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
        # Round-trips through the CDF.
        t = student_t_ppf(0.9, 6)
        assert student_t_cdf(t, 6) == pytest.approx(0.9, abs=1e-9)

    def test_binomial_cdf_exact(self):
        # Fair coin, n=10: P(X <= 5) = 638/1024.
        assert binomial_cdf(5, 10, 0.5) == pytest.approx(
            638 / 1024, abs=1e-12
        )
        assert binomial_cdf(-1, 10, 0.5) == 0.0
        assert binomial_cdf(10, 10, 0.5) == 1.0
        assert binomial_cdf(3, 8, 0.0) == 1.0
        assert binomial_cdf(3, 8, 1.0) == 0.0


# ----------------------------------------------------------------------
# Interval estimators
# ----------------------------------------------------------------------
class TestMeanInterval:
    def test_below_two_samples_is_unbounded(self):
        assert mean_interval(0, 0.0, 0.0) is None
        assert mean_interval(1, 5.0, 0.0) is None

    def test_zero_variance_is_zero_width(self):
        interval = mean_interval(5, 3.0, 0.0)
        assert (interval.lo, interval.hi) == (3.0, 3.0)
        assert interval.rel_half_width(3.0) == 0.0

    def test_half_width_formula(self):
        # n=4, s^2=1: hw = t_{0.975,3} / 2.
        interval = mean_interval(4, 10.0, 1.0, confidence=0.95)
        expect = student_t_ppf(0.975, 3) / 2.0
        assert interval.half_width == pytest.approx(expect, rel=1e-9)
        assert interval.lo == pytest.approx(10.0 - expect, rel=1e-9)

    def test_sketch_interval_equals_direct(self):
        values = [9.5, 10.2, 10.0, 10.8, 9.9]
        sketch = _sketch(values)
        via_sketch = sketch_mean_interval(sketch)
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


class TestQuantileRankInterval:
    def test_small_samples_are_unbounded(self):
        assert quantile_rank_interval(_sketch([1.0]), 0.5) is None

    def test_interval_is_ordered_and_reports_coverage(self):
        sketch = _sketch(range(20))
        qi = quantile_rank_interval(sketch, 0.5, 0.95)
        assert 1 <= qi.lo_rank <= qi.hi_rank <= 20
        assert qi.lo <= qi.hi
        assert 0.0 < qi.coverage <= 1.0

    def test_extreme_quantile_small_n_reports_weak_coverage(self):
        # n=4 cannot bound p99 at 95%: the whole-sample interval is
        # returned with its honest (much lower) achieved coverage.
        qi = quantile_rank_interval(_sketch([1, 2, 3, 4]), 0.99, 0.95)
        assert qi.coverage < 0.95
        assert (qi.lo_rank, qi.hi_rank) == (1, 4) or qi.hi_rank == 4

    def test_deterministic_for_same_input(self):
        a = quantile_rank_interval(_sketch(range(30)), 0.95, 0.95)
        b = quantile_rank_interval(_sketch(range(30)), 0.95, 0.95)
        assert a == b

    def test_median_coverage_on_exponential_is_conservative(self):
        """Order-statistic intervals meet nominal coverage when the
        achieved (binomial) coverage does — exponential data, n=25."""
        rng = random.Random(99)
        true_median = math.log(2.0)
        trials, hits, achieved = 400, 0, None
        for _ in range(trials):
            sketch = _sketch(rng.expovariate(1.0) for _ in range(25))
            qi = quantile_rank_interval(sketch, 0.5, 0.95)
            achieved = qi.coverage
            if qi.lo <= true_median <= qi.hi:
                hits += 1
        assert achieved >= 0.95          # n=25 can bound the median
        assert hits / trials >= 0.93, hits / trials

    @given(data=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                   allow_nan=False),
                         min_size=2, max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_structural_properties(self, data):
        sketch = _sketch(data)
        for q in (0.5, 0.95, 0.99):
            qi = quantile_rank_interval(sketch, q, 0.95)
            assert qi.lo <= qi.hi
            assert min(data) <= qi.lo and qi.hi <= max(data)


class TestJainInterval:
    def test_equal_shares_pin_index_at_one(self):
        interval = jain_interval([[1.0, 1.0]] * 4)
        assert (interval.lo, interval.hi) == (1.0, 1.0)

    def test_per_replication_estimator(self):
        rows = [[1.0, 1.0], [1.0, 0.0], [1.0, 1.0], [1.0, 0.0]]
        interval = jain_interval(rows)
        # Per-rep indices are [1, 0.5, 1, 0.5] -> mean 0.75.
        assert interval.lo < 0.75 < interval.hi
        assert jain_interval(rows[:1]) is None

    def test_edge_cases_agree_with_the_cell_index(self):
        """The interval and ``campaign.cells``' own index are one
        function: idle and empty replications are vacuously fair, and a
        NaN share is an error rather than a NaN interval."""
        for idle in ([[0.0, 0.0]] * 3, [[]] * 3):
            interval = jain_interval(idle)
            assert (interval.lo, interval.hi) == (1.0, 1.0)
        with pytest.raises(ValueError):
            jain_interval([[1.0, 1.0], [1.0, float("nan")]])
        with pytest.raises(ValueError):
            jain_interval([[1.0, 1.0], [1.0, -1.0]])


# ----------------------------------------------------------------------
# Stopping rule
# ----------------------------------------------------------------------
class TestEvaluateGroup:
    def test_deterministic_metrics_stop_immediately(self):
        decision = evaluate_group(
            {"m": _sketch([5.0, 5.0, 5.0])}, precision=0.01
        )
        assert decision.met
        assert decision.worst_rel_half_width == 0.0
        assert decision.reps == 3

    def test_noisy_metric_blocks_until_precise(self):
        wide = evaluate_group({"m": _sketch([1.0, 9.0])}, precision=0.05)
        assert not wide.met and wide.worst_metric == "m"
        tight = evaluate_group(
            {"m": _sketch([10.0, 10.001, 9.999, 10.0])}, precision=0.05
        )
        assert tight.met

    def test_targets_filter_and_silence_never_stops(self):
        metrics = {"m": _sketch([5.0, 5.0]), "noise": _sketch([1.0, 99.0])}
        scoped = evaluate_group(metrics, precision=0.01, targets=("m",))
        assert scoped.met and list(scoped.rel_half_widths) == ["m"]
        silent = evaluate_group(metrics, precision=0.01,
                                targets=("absent",))
        assert not silent.met
        assert silent.worst_rel_half_width == math.inf

    def test_metric_matches_families(self):
        assert metric_matches("tput.3", ("tput",))
        assert metric_matches("tput[0]", ("tput",))
        assert not metric_matches("tput_total", ("tput",))
        assert metric_matches("anything", ())


# ----------------------------------------------------------------------
# Precision engine end-to-end
# ----------------------------------------------------------------------
def _precision_spec(**overrides) -> CampaignSpec:
    kwargs = dict(
        name="prec",
        fn="tests.test_campaign_stats:noisy_cell",
        grid={"x": [1, 2]},
        fixed={"scale": 0.01},
        replications=10,
        precision=0.05,
        precision_metrics=("m",),
        min_reps=3,
        base_seed=77,
    )
    kwargs.update(overrides)
    return CampaignSpec.make(**kwargs)


class TestPrecisionEngine:
    def test_converged_groups_stop_before_cap(self, tmp_path):
        spec = _precision_spec()
        outcome = CampaignEngine(spec, tmp_path / "c", jobs=1).run()
        assert outcome.exit_code == 0
        # Noise is tiny relative to the 5% target: both grid points
        # retire at the replication floor, far below the cap of 10.
        assert outcome.committed == 6 and outcome.stopped == 14
        merged = json.loads((tmp_path / "c" / "merged.json").read_text())
        assert len(merged["stopped_cells"]) == 14
        assert merged["missing_cells"] == []
        assert merged["precision"]["target"] == 0.05
        for group in merged["groups"].values():
            assert group["metrics"]["m"]["count"] == 3
            ci = group["ci"]["m"]
            assert ci["lo"] <= ci["mean"] <= ci["hi"]
        # The journal holds the audit trail: ci evaluations + stops.
        records, _ = read_journal(tmp_path / "c" / "journal.jsonl")
        events = [r["ev"] for r in records]
        assert events.count("stop") == 2
        assert "ci" in events
        status = campaign_status(tmp_path / "c")
        assert status.exit_code == 0

    def test_unmet_target_runs_to_cap(self, tmp_path):
        spec = _precision_spec(fixed={"scale": 50.0}, replications=4,
                               precision=0.0001)
        outcome = CampaignEngine(spec, tmp_path / "c", jobs=1).run()
        assert outcome.exit_code == 0
        assert outcome.committed == 8 and outcome.stopped == 0
        # Budget exhausted: every group ran to the cap with its target
        # unmet, and merged.json says so without any renderer.
        merged = json.loads((tmp_path / "c" / "merged.json").read_text())
        assert merged["stopped_cells"] == []
        for group in merged["groups"].values():
            assert group["metrics"]["m"]["count"] == 4
            ci = group["ci"]["m"]
            assert ci["half_width"] / abs(ci["mean"]) > 0.0001

    def test_stopped_resume_is_byte_identical(self, tmp_path):
        """kill mid-precision-sweep -> resume == uninterrupted run."""
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "interrupt-once").write_text("x\n")
        spec = _precision_spec(
            fn="tests.test_campaign_stats:interrupt_once_noisy_cell",
            fixed={"scale": 0.01, "spool": str(spool)},
        )
        outcome = CampaignEngine(spec, tmp_path / "c", jobs=1).run()
        assert outcome.interrupted and outcome.exit_code == 130
        assert not (tmp_path / "c" / "merged.json").exists()
        # Resume completes the sweep, re-deriving every stop decision
        # from committed shard state.
        outcome = CampaignEngine.open(tmp_path / "c", jobs=1).run(
            resume=True
        )
        assert outcome.exit_code == 0 and outcome.stopped > 0
        reference = CampaignEngine(spec, tmp_path / "ref", jobs=1).run()
        assert reference.exit_code == 0
        assert ((tmp_path / "c" / "merged.json").read_bytes()
                == (tmp_path / "ref" / "merged.json").read_bytes())

    def test_status_replays_stop_records(self, tmp_path):
        spec = _precision_spec()
        CampaignEngine(spec, tmp_path / "c", jobs=1).run()
        status = campaign_status(tmp_path / "c")
        assert sum(1 for r in status.rows if r.state == "stopped") == 14
