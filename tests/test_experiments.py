"""Scaled-down runs of every experiment module (shape assertions).

These use short durations so the whole file stays in CI budget; the
full-length reproduction is ``repro report --duration-scale 1``.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    airtime_udp,
    fault_tolerance,
    latency,
    scaling,
    sparse,
    table1,
    tcp_throughput,
    voip,
    web,
)
from repro.experiments.registry import BY_ID
from repro.mac.ap import Scheme

DUR = 4.0
WARM = 2.0


@pytest.fixture(scope="module")
def udp_results():
    return {s: airtime_udp.run_scheme(s, DUR, WARM) for s in Scheme}


class TestAirtimeUdp(object):
    def test_fifo_slow_station_dominates(self, udp_results):
        assert udp_results[Scheme.FIFO].airtime_shares[2] > 0.6

    def test_airtime_scheme_equalises(self, udp_results):
        for share in udp_results[Scheme.AIRTIME].airtime_shares.values():
            assert share == pytest.approx(1 / 3, abs=0.03)

    def test_total_throughput_multiplies(self, udp_results):
        assert (
            udp_results[Scheme.AIRTIME].total_mbps
            > 2.5 * udp_results[Scheme.FIFO].total_mbps
        )

    def test_fq_mac_fast_aggregation_recovers(self, udp_results):
        assert udp_results[Scheme.FIFO].mean_aggregation[0] < 8
        assert udp_results[Scheme.FQ_MAC].mean_aggregation[0] > 15

    def test_format_table_mentions_all_schemes(self, udp_results):
        text = airtime_udp.format_table(list(udp_results.values()))
        for scheme in Scheme:
            assert scheme.value in text


class TestTable1:
    def test_model_and_measurement_agree(self):
        result = BY_ID["table1"].run(duration_s=DUR, warmup_s=WARM)
        # Fair half: prediction within 15% of measurement per station.
        for pred, meas in zip(result.fair_predictions, result.fair_measured_mbps):
            assert meas == pytest.approx(pred.rate_mbps, rel=0.15)

    def test_airtime_shares_reported(self):
        result = BY_ID["table1"].run(duration_s=DUR, warmup_s=WARM)
        assert result.baseline_airtime_shares[2] > 0.6
        assert result.fair_airtime_shares[2] == pytest.approx(1 / 3, abs=0.05)
        assert "Airtime Fairness" in table1.format_table(result)


class TestLatency:
    def test_fifo_vs_fq_mac_order_of_magnitude(self):
        # CUBIC needs several seconds to fill the 1000-packet FIFO, so
        # this test runs longer than the rest of the file.
        fifo = latency.run_scheme(Scheme.FIFO, 10.0, 5.0)
        fq_mac = latency.run_scheme(Scheme.FQ_MAC, 10.0, 5.0)
        assert fifo.fast_summary().median > 4 * fq_mac.fast_summary().median

    def test_format_table(self):
        results = [latency.run_scheme(Scheme.FQ_MAC, 3.0, 2.0)]
        assert "median" in latency.format_table(results)


class TestFairnessIndex:
    def test_airtime_udp_jain_near_one(self):
        results = BY_ID["fig06"].run(
            schemes=[Scheme.FIFO, Scheme.AIRTIME],
            traffic_types=["udp"], duration_s=DUR, warmup_s=WARM,
        )
        by_scheme = {r.scheme: r for r in results}
        assert by_scheme[Scheme.AIRTIME].jain["udp"] > 0.98
        assert by_scheme[Scheme.FIFO].jain["udp"] < 0.7


class TestTcpThroughput:
    def test_airtime_beats_fifo_total(self):
        fifo = tcp_throughput.run_scheme(Scheme.FIFO, 8.0, 4.0)
        fair = tcp_throughput.run_scheme(Scheme.AIRTIME, 8.0, 4.0)
        assert fair.total_mbps > 1.5 * fifo.total_mbps

    def test_bidirectional_variant_runs(self):
        result = tcp_throughput.run_scheme(
            Scheme.AIRTIME, 5.0, 2.0, bidirectional=True
        )
        assert result.upload_mbps


class TestSparse:
    def test_optimisation_reduces_median_latency(self):
        on = sparse.run_case("udp", True, 6.0, 3.0)
        off = sparse.run_case("udp", False, 6.0, 3.0)
        assert on.summary().median < off.summary().median


class TestVoip:
    def test_fq_mac_be_beats_fifo_be(self):
        fifo = voip.run_case(Scheme.FIFO, "BE", 5.0, duration_s=5.0, warmup_s=2.0)
        fq = voip.run_case(Scheme.FQ_MAC, "BE", 5.0, duration_s=5.0, warmup_s=2.0)
        assert fq.voip.mos >= fifo.voip.mos
        assert fq.total_throughput_mbps > fifo.total_throughput_mbps

    def test_vo_marking_keeps_mos_high_even_under_fifo(self):
        result = voip.run_case(Scheme.FIFO, "VO", 5.0, duration_s=5.0,
                               warmup_s=2.0)
        assert result.voip.mos > 4.0


class TestWeb:
    def test_fifo_plt_worst(self):
        from repro.traffic.web import SMALL_PAGE

        fifo = web.run_case(Scheme.FIFO, SMALL_PAGE, duration_s=10.0,
                            warmup_s=3.0)
        fair = web.run_case(Scheme.AIRTIME, SMALL_PAGE, duration_s=10.0,
                            warmup_s=3.0)
        assert fifo.mean_plt_s > fair.mean_plt_s


class TestFaultTolerance:
    def test_first_measured_window_is_measured_from_the_warmup_reset(self):
        """The warm-up reset zeroes the airtime account and clears the
        ping RTTs; the sampler's baselines restart with them, so FIFO's
        first measured window (2.0-2.5 s) reads its unfair split and keeps
        its pings, not a clipped all-zero 1.0 and no RTT entry."""
        result = fault_tolerance.run_scheme(Scheme.FIFO, duration_s=3.0,
                                            warmup_s=2.0)
        jain = {round(t, 6): j for t, j in result.jain_series}
        rtt = {round(t, 6): ms for t, ms in result.rtt_series}
        assert jain[2.5] < 0.9
        assert 2.5 in rtt


@pytest.mark.slow
class TestScaling:
    def test_airtime_equalises_thirty_stations(self):
        result = scaling.run_scheme(Scheme.AIRTIME, duration_s=6.0,
                                    warmup_s=3.0)
        assert result.slow_share < 0.1
        assert max(result.airtime_shares.values()) < 0.1

    def test_fq_codel_slow_station_grabs_large_share(self):
        result = scaling.run_scheme(Scheme.FQ_CODEL, duration_s=6.0,
                                    warmup_s=3.0)
        assert result.slow_share > 0.3
