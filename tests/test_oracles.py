"""Tests for the metamorphic and dominance oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.latency import LatencyResult
from repro.mac.ap import Scheme
from repro.validation import oracles
from repro.validation.matrix import CellMetrics
from repro.validation.oracles import (
    BASELINE_PROPERTY,
    CONSERVATION,
    JAIN_DOMINANCE,
    SCALE_INVARIANCE,
    SHARE_NORMALISATION,
    THROUGHPUT_BOUNDS,
    dominance_verdicts,
    fuzz_verdicts,
    latency_dominance,
    rate_monotonicity,
    rate_monotonicity_verdict,
    scale_invariance_verdict,
)


def _metrics(throughput=None, shares=None, jain=1.0, balance=0,
             stalls=0, mcs_indices=(15, 0)) -> CellMetrics:
    throughput = throughput if throughput is not None else {0: 40.0, 1: 2.0}
    shares = shares if shares is not None else {0: 0.5, 1: 0.5}
    return CellMetrics(
        mcs_indices=mcs_indices,
        scheme_name="AIRTIME",
        throughput_mbps=throughput,
        airtime_shares=shares,
        mean_aggregation={i: 8.0 for i in throughput},
        jain_airtime=jain,
        window_us=1e6,
        conservation_balance=balance,
        stall_violations=stalls,
    )


def _fast_pings(**p95_ms) -> dict:
    """Latency runs keyed by scheme whose fast stations all ping at the
    given milliseconds, so their P95 is that value."""
    return {Scheme[name]: LatencyResult(Scheme[name], False,
                                        {0: [ms], 1: [ms], 2: [1.0]})
            for name, ms in p95_ms.items()}


class TestPureChecks:
    def test_conservation_passes_on_zero_balance(self):
        assert CONSERVATION.judge([_metrics()]).passed

    def test_conservation_fails_on_imbalance_or_stall(self):
        verdict = CONSERVATION.judge([_metrics(balance=-3)])
        assert not verdict.passed
        assert verdict.value("|conservation balance|") == 3
        assert verdict.detail == "balance=-3, stalls=0"
        assert not CONSERVATION.judge([_metrics(stalls=1)]).passed

    def test_share_normalisation(self):
        assert SHARE_NORMALISATION.judge([_metrics()]).passed
        verdict = SHARE_NORMALISATION.judge([_metrics(shares={0: 0.5, 1: 0.4})])
        assert not verdict.passed
        assert verdict.value("|sum(shares) − 1|") == pytest.approx(0.1)
        # Nothing transmitted: all-zero shares are normalised.
        assert SHARE_NORMALISATION.judge([_metrics(shares={0: 0.0, 1: 0.0})]).passed
        assert not SHARE_NORMALISATION.judge([_metrics(jain=0.0)]).passed
        assert not SHARE_NORMALISATION.judge([_metrics(jain=1.01)]).passed

    def test_throughput_bounds(self):
        # MCS 15 + MCS 0 carry 144.4 + 7.2 Mbps at the PHY.
        assert THROUGHPUT_BOUNDS.judge([_metrics()]).passed
        verdict = THROUGHPUT_BOUNDS.judge(
            [_metrics(throughput={0: 150.0, 1: 2.0})])
        assert not verdict.passed
        assert verdict.detail == "total 152.00 Mbps within [0, 151.6]"
        assert not THROUGHPUT_BOUNDS.judge(
            [_metrics(throughput={0: -1.0, 1: 0.5})]).passed

    def test_scale_invariance_tolerates_small_drift(self):
        base = _metrics(throughput={0: 40.0, 1: 2.0})
        scaled = _metrics(throughput={0: 41.0, 1: 2.1})
        verdict = SCALE_INVARIANCE.judge([{"base": base, "scaled": scaled}])
        assert verdict.passed
        assert verdict.value("worst rate drift") == pytest.approx(0.1 / 2.1)

    def test_scale_invariance_catches_large_drift(self):
        base = _metrics(throughput={0: 40.0, 1: 2.0})
        scaled = _metrics(throughput={0: 20.0, 1: 2.0})
        verdict = SCALE_INVARIANCE.judge([{"base": base, "scaled": scaled}])
        assert not verdict.passed
        assert verdict.detail == ("worst per-station rate drift 50.0% "
                                  "(station 0, tol 15%)")

    def test_rate_monotonicity_direction(self):
        base = _metrics(throughput={0: 40.0, 1: 2.0})
        up = _metrics(throughput={0: 40.0, 1: 6.0})
        down = _metrics(throughput={0: 40.0, 1: 1.0})
        within = _metrics(throughput={0: 40.0, 1: 1.9})
        claim = rate_monotonicity(station=1)
        assert claim.judge([{"base": base, "boosted": up}]).passed
        assert claim.judge([{"base": base, "boosted": within}]).passed
        assert not claim.judge([{"base": base, "boosted": down}]).passed

    def test_jain_dominance(self):
        fifo = _metrics(jain=0.55)
        airtime = _metrics(jain=0.99)
        verdict = JAIN_DOMINANCE.judge(
            [{Scheme.FIFO: fifo, Scheme.AIRTIME: airtime}])
        assert verdict.passed
        assert verdict.value("Airtime − FIFO Jain") == pytest.approx(0.44)
        assert not JAIN_DOMINANCE.judge(
            [{Scheme.FIFO: airtime, Scheme.AIRTIME: fifo}]).passed
        # A tie within the margin still dominates.
        assert JAIN_DOMINANCE.judge(
            [{Scheme.FIFO: _metrics(jain=1.0),
              Scheme.AIRTIME: _metrics(jain=0.995)}]).passed

    def test_latency_dominance(self):
        claim = latency_dominance(Scheme.FQ_CODEL)
        verdict = claim.judge([_fast_pings(FIFO=400.0, FQ_CODEL=20.0)])
        assert verdict.passed
        assert verdict.detail == "FQ-CoDel sparse P95 20.0 ms vs FIFO 400.0 ms"
        assert not claim.judge([_fast_pings(FIFO=20.0, FQ_CODEL=400.0)]).passed
        assert claim.judge([_fast_pings(FIFO=20.0, FQ_CODEL=21.5)]).passed

    def test_latency_dominance_without_fast_pings_fails_with_a_reason(self):
        """A run whose fast stations completed no ping is a ✗ that says so,
        not a ``ValueError`` out of the whole battery."""
        runs = _fast_pings(FIFO=400.0, FQ_MAC=20.0)
        runs[Scheme.FQ_MAC].rtts_ms.update({0: [], 1: []})
        verdict = latency_dominance(Scheme.FQ_MAC).judge([runs])
        assert (verdict.passed, verdict.detail) == (
            False, "no fast-station ping completed under FQ-MAC")

    def test_baseline_property(self):
        """Station i is compared with the homogeneous cell at its own MCS."""
        homogeneous = {
            0: _metrics(throughput={0: 2.0, 1: 2.0, 2: 2.0},
                        mcs_indices=(0,) * 3),
            15: _metrics(throughput={0: 40.0, 1: 40.0, 2: 40.0},
                         mcs_indices=(15,) * 3),
        }
        fair = _metrics(throughput={0: 40.8, 1: 39.0, 2: 1.95},
                        mcs_indices=(15, 15, 0))
        verdict = BASELINE_PROPERTY.judge([dict(homogeneous, mixed=fair)])
        assert verdict.passed, verdict.detail
        assert "1.020 / 0.975 / 0.975" in verdict.detail
        # The anomaly: the slow station takes the fast stations' airtime.
        anomaly = _metrics(throughput={0: 11.0, 1: 12.0, 2: 4.6},
                           mcs_indices=(15, 15, 0))
        assert not BASELINE_PROPERTY.judge(
            [dict(homogeneous, mixed=anomaly)]).passed
        # Just outside the ±5% band on one station is a failure.
        edge = _metrics(throughput={0: 40.0, 1: 40.0, 2: 1.88},
                        mcs_indices=(15, 15, 0))
        verdict = BASELINE_PROPERTY.judge([dict(homogeneous, mixed=edge)])
        assert not verdict.passed
        assert verdict.value("max |mixed/homogeneous − 1|") == (
            pytest.approx(0.06))

    def test_a_run_that_produced_no_value_fails_its_oracle(self,
                                                           monkeypatch):
        """Every driver scores a run lost to the runner as ✗ run failed."""
        monkeypatch.setattr(oracles, "execute", lambda specs, runner:
                            [None] + [_metrics()] * (len(specs) - 1))
        verdicts = [oracles.scale_invariance_verdict(),
                    oracles.rate_monotonicity_verdict(),
                    oracles.baseline_property_verdict(),
                    *dominance_verdicts()]
        assert len(verdicts) == 6
        for verdict in verdicts:
            assert (verdict.passed, verdict.detail) == (False, "run failed")


@pytest.mark.validation
class TestSimDrivenOracles:
    def test_scale_invariance_holds_in_sim(self):
        verdict = scale_invariance_verdict(duration_s=0.8, factor=2.0)
        assert verdict.passed, verdict.detail

    def test_rate_monotonicity_holds_in_sim(self):
        verdict = rate_monotonicity_verdict(duration_s=0.8)
        assert verdict.passed, verdict.detail

    def test_monotonicity_rejects_a_non_boost(self):
        with pytest.raises(ValueError):
            rate_monotonicity_verdict(mcs_indices=(15, 15, 7),
                                      boosted_mcs=7)

    @pytest.mark.slow
    def test_dominance_holds_in_sim(self):
        verdicts = dominance_verdicts(duration_s=1.5, warmup_s=0.5)
        assert verdicts, "no dominance verdicts produced"
        for verdict in verdicts:
            assert verdict.passed, verdict.row()


@pytest.mark.validation
@pytest.mark.slow
class TestFuzzer:
    """Random short scenarios under the oracles, watchdogs armed."""

    @settings(max_examples=20, deadline=None)
    @given(
        mcs_indices=st.lists(st.integers(min_value=0, max_value=15),
                             min_size=2, max_size=4).map(tuple),
        scheme=st.sampled_from([Scheme.FIFO, Scheme.FQ_CODEL,
                                Scheme.FQ_MAC, Scheme.AIRTIME]),
        payload_bytes=st.sampled_from([300, 1500]),
        seed=st.integers(min_value=1, max_value=50),
    )
    def test_random_scenarios_satisfy_the_oracles(self, mcs_indices,
                                                  scheme, payload_bytes,
                                                  seed):
        verdicts = fuzz_verdicts(mcs_indices, scheme,
                                 payload_bytes=payload_bytes,
                                 duration_s=0.3, seed=seed)
        for verdict in verdicts:
            assert verdict.passed, verdict.row()
