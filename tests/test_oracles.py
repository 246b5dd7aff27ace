"""Tests for the metamorphic and dominance oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.ap import Scheme
from repro.validation.matrix import CellMetrics
from repro.validation.oracles import (
    check_baseline_property,
    check_conservation,
    check_jain_dominance,
    check_latency_dominance,
    check_rate_monotonicity,
    check_scale_invariance,
    check_share_normalisation,
    dominance_verdicts,
    fuzz_verdicts,
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


class TestPureChecks:
    def test_conservation_passes_on_zero_balance(self):
        assert check_conservation(_metrics()).ok

    def test_conservation_fails_on_imbalance_or_stall(self):
        assert not check_conservation(_metrics(balance=3)).ok
        assert not check_conservation(_metrics(stalls=1)).ok

    def test_share_normalisation(self):
        assert check_share_normalisation(_metrics()).ok
        assert not check_share_normalisation(
            _metrics(shares={0: 0.5, 1: 0.4})).ok

    def test_scale_invariance_tolerates_small_drift(self):
        base = _metrics(throughput={0: 40.0, 1: 2.0})
        scaled = _metrics(throughput={0: 41.0, 1: 2.1})
        assert check_scale_invariance(base, scaled).ok

    def test_scale_invariance_catches_large_drift(self):
        base = _metrics(throughput={0: 40.0, 1: 2.0})
        scaled = _metrics(throughput={0: 20.0, 1: 2.0})
        assert not check_scale_invariance(base, scaled).ok

    def test_rate_monotonicity_direction(self):
        base = _metrics(throughput={0: 40.0, 1: 2.0})
        up = _metrics(throughput={0: 40.0, 1: 6.0})
        down = _metrics(throughput={0: 40.0, 1: 1.0})
        assert check_rate_monotonicity(base, up, station=1).ok
        assert not check_rate_monotonicity(base, down, station=1).ok

    def test_jain_dominance(self):
        fifo = _metrics(jain=0.55)
        airtime = _metrics(jain=0.99)
        assert check_jain_dominance(fifo, airtime).ok
        assert not check_jain_dominance(airtime, fifo).ok

    def test_latency_dominance(self):
        assert check_latency_dominance(400.0, 20.0, "FQ-CoDel").ok
        assert not check_latency_dominance(20.0, 400.0, "FQ-CoDel").ok

    def test_baseline_property(self):
        """Station i is compared with the homogeneous cell at its own MCS,
        whatever order the homogeneous cells come in."""
        homogeneous = [
            _metrics(throughput={0: 2.0, 1: 2.0, 2: 2.0}, mcs_indices=(0,) * 3),
            _metrics(throughput={0: 40.0, 1: 40.0, 2: 40.0},
                     mcs_indices=(15,) * 3),
        ]
        fair = _metrics(throughput={0: 40.8, 1: 39.0, 2: 1.95},
                        mcs_indices=(15, 15, 0))
        verdict = check_baseline_property(fair, homogeneous)
        assert verdict.ok, verdict.detail
        assert "1.020 / 0.975 / 0.975" in verdict.detail
        # The anomaly: the slow station takes the fast stations' airtime.
        anomaly = _metrics(throughput={0: 11.0, 1: 12.0, 2: 4.6},
                           mcs_indices=(15, 15, 0))
        assert not check_baseline_property(anomaly, homogeneous).ok
        # Just outside the band on one station is a failure.
        edge = _metrics(throughput={0: 40.0, 1: 40.0, 2: 1.88},
                        mcs_indices=(15, 15, 0))
        assert not check_baseline_property(edge, homogeneous).ok
        assert check_baseline_property(edge, homogeneous, band=0.07).ok


@pytest.mark.validation
class TestSimDrivenOracles:
    def test_scale_invariance_holds_in_sim(self):
        verdict = scale_invariance_verdict(duration_s=0.8, factor=2.0)
        assert verdict.ok, verdict.detail

    def test_rate_monotonicity_holds_in_sim(self):
        verdict = rate_monotonicity_verdict(duration_s=0.8)
        assert verdict.ok, verdict.detail

    def test_monotonicity_rejects_a_non_boost(self):
        with pytest.raises(ValueError):
            rate_monotonicity_verdict(mcs_indices=(15, 15, 7),
                                      boosted_mcs=7)

    @pytest.mark.slow
    def test_dominance_holds_in_sim(self):
        verdicts = dominance_verdicts(duration_s=1.5, warmup_s=0.5)
        assert verdicts, "no dominance verdicts produced"
        for verdict in verdicts:
            assert verdict.ok, str(verdict)


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
            assert verdict.ok, str(verdict)
