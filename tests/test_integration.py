"""End-to-end integration invariants across the whole simulator."""

from __future__ import annotations

import pytest

from repro.mac.ap import APConfig, Scheme
from repro.traffic.ping import PingFlow
from repro.traffic.tcp import TcpConnection
from repro.traffic.udp import UdpDownloadFlow
from tests.conftest import make_testbed


class TestDeterminism:
    def test_identical_seeds_replay_identically(self):
        def run(seed):
            tb = make_testbed(Scheme.AIRTIME, seed=seed)
            flows = [
                UdpDownloadFlow(tb.sim, tb.server, tb.stations[i],
                                rate_bps=20e6).start()
                for i in range(3)
            ]
            tb.sim.run(until_us=1_000_000.0)
            return [f.sink.rx_bytes for f in flows], dict(tb.tracker.airtime_us)

        assert run(5) == run(5)

    def test_different_seeds_differ(self):
        def run(seed):
            tb = make_testbed(Scheme.AIRTIME, seed=seed)
            UdpDownloadFlow(tb.sim, tb.server, tb.stations[0],
                            rate_bps=20e6).start()
            tb.sim.run(until_us=1_000_000.0)
            return dict(tb.tracker.airtime_us)

        assert run(1) != run(2)


class TestConservation:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_udp_packets_conserved(self, scheme):
        """tx = delivered + queued + dropped, per flow."""
        tb = make_testbed(scheme)
        dropped = []
        tb.ap.drops.add_observer(lambda p, layer, r: dropped.append(p.pid))
        flow = UdpDownloadFlow(tb.sim, tb.server, tb.stations[2],
                               rate_bps=30e6).start()
        tb.sim.run(until_us=2_000_000.0)
        delivered = flow.sink.rx_packets
        queued = tb.ap.total_queued_packets()
        in_hw = flow.tx_packets - delivered - queued - len(dropped)
        # Whatever is neither delivered, queued, nor dropped must be in
        # the hardware queue / in flight: a handful at most.
        assert 0 <= in_hw <= 10


class TestAirtimeMeasurementAccuracy:
    def test_tracked_airtime_matches_medium_busy_time(self):
        """The paper verified in-kernel airtime against monitor captures
        to within 1.5%; our tracker must match the medium exactly."""
        tb = make_testbed(Scheme.AIRTIME)
        for i in range(3):
            UdpDownloadFlow(tb.sim, tb.server, tb.stations[i],
                            rate_bps=30e6).start()
        tb.sim.run(until_us=2_000_000.0)
        tracked = sum(tb.tracker.airtime_us.values())
        assert tracked == pytest.approx(tb.medium.busy_time_us, rel=1e-9)

    def test_channel_cannot_be_overcommitted(self):
        tb = make_testbed(Scheme.FIFO)
        for i in range(3):
            UdpDownloadFlow(tb.sim, tb.server, tb.stations[i],
                            rate_bps=60e6).start()
        tb.sim.run(until_us=2_000_000.0)
        assert tb.medium.busy_time_us <= tb.sim.now


class TestAnomalyEndToEnd:
    def test_round_robin_gives_slow_station_most_airtime(self):
        """The performance anomaly, end to end (Figure 5 left half)."""
        tb = make_testbed(Scheme.FIFO)
        UdpDownloadFlow(tb.sim, tb.server, tb.stations[0], rate_bps=50e6).start()
        UdpDownloadFlow(tb.sim, tb.server, tb.stations[1], rate_bps=50e6).start()
        UdpDownloadFlow(tb.sim, tb.server, tb.stations[2], rate_bps=20e6).start()
        tb.sim.run(until_us=5_000_000.0)
        shares = tb.tracker.airtime_shares([0, 1, 2])
        assert shares[2] > 0.6

    def test_airtime_scheduler_equalises_shares(self):
        """And its resolution (Figure 5 right half)."""
        tb = make_testbed(Scheme.AIRTIME)
        UdpDownloadFlow(tb.sim, tb.server, tb.stations[0], rate_bps=50e6).start()
        UdpDownloadFlow(tb.sim, tb.server, tb.stations[1], rate_bps=50e6).start()
        UdpDownloadFlow(tb.sim, tb.server, tb.stations[2], rate_bps=20e6).start()
        tb.sim.run(until_us=5_000_000.0)
        shares = tb.tracker.airtime_shares([0, 1, 2])
        for share in shares.values():
            assert share == pytest.approx(1 / 3, abs=0.03)

    def test_airtime_fairness_multiplies_total_throughput(self):
        """The headline: fixing the anomaly raises aggregate throughput
        by an integer factor (paper: up to 5x)."""

        def total(scheme):
            tb = make_testbed(scheme)
            flows = [
                UdpDownloadFlow(tb.sim, tb.server, tb.stations[i],
                                rate_bps=r).start()
                for i, r in enumerate([50e6, 50e6, 20e6])
            ]
            tb.sim.run(until_us=5_000_000.0)
            return sum(f.sink.rx_bytes for f in flows)

        assert total(Scheme.AIRTIME) > 2.5 * total(Scheme.FIFO)


class TestLatencyEndToEnd:
    def test_fq_mac_cuts_loaded_latency_by_an_order_of_magnitude(self):
        """Figure 1: FIFO vs the integrated queueing, ping under load."""

        def median_rtt(scheme):
            import statistics

            tb = make_testbed(scheme)
            for i in range(3):
                TcpConnection(tb.sim, tb.server, tb.stations[i],
                              direction="down").start()
            ping = PingFlow(tb.sim, tb.server, tb.stations[0]).start(
                delay_us=1000.0
            )
            tb.sim.run(until_us=8_000_000.0)
            tb.sim.start_window()
            tb.sim.run(until_us=15_000_000.0)
            return statistics.median(ping.rtts_ms)

        fifo = median_rtt(Scheme.FIFO)
        fq_mac = median_rtt(Scheme.FQ_MAC)
        assert fifo > 5 * fq_mac

    def test_codel_keeps_be_queue_standing_delay_bounded(self):
        tb = make_testbed(Scheme.FQ_MAC)
        TcpConnection(tb.sim, tb.server, tb.stations[0], direction="down").start()
        ping = PingFlow(tb.sim, tb.server, tb.stations[0]).start(delay_us=500.0)
        tb.sim.run(until_us=8_000_000.0)
        tb.sim.start_window()
        tb.sim.run(until_us=14_000_000.0)
        import statistics

        assert statistics.median(ping.rtts_ms) < 100.0


class TestAblations:
    def test_rx_accounting_improves_bidirectional_fairness(self):
        from repro.analysis.fairness import jain_index
        from repro.traffic.tcp import TcpConnection

        def bidir_jain(account_rx):
            tb = make_testbed(
                Scheme.AIRTIME,
                ap_config=APConfig(account_rx_airtime=account_rx),
            )
            for i in range(3):
                TcpConnection(tb.sim, tb.server, tb.stations[i],
                              direction="down").start()
                TcpConnection(tb.sim, tb.server, tb.stations[i],
                              direction="up").start(delay_us=500.0)
            tb.sim.run(until_us=10_000_000.0)
            return tb.tracker.jain_airtime([0, 1, 2])

        assert bidir_jain(True) >= bidir_jain(False) - 0.02

    def test_lowrate_codel_tuning_reduces_slow_station_drops(self):
        def slow_codel_drops(enabled):
            tb = make_testbed(
                Scheme.AIRTIME,
                ap_config=APConfig(codel_lowrate_tuning=enabled),
            )
            drops = []
            tb.ap.drops.add_observer(
                lambda p, layer, r: drops.append(p) if r == "codel" else None
            )
            UdpDownloadFlow(tb.sim, tb.server, tb.stations[2],
                            rate_bps=3e6).start()
            tb.sim.run(until_us=10_000_000.0)
            return len(drops)

        assert slow_codel_drops(True) <= slow_codel_drops(False)

    def test_sparse_station_optimisation_costs_no_bulk_throughput(self):
        """§3.2 item 3: the priority given to sparse stations trades
        (essentially) nothing away from saturating bulk traffic."""
        from repro.experiments.workloads import saturating_udp_download

        def bulk_total_mbps(sparse_enabled):
            tb = make_testbed(
                Scheme.AIRTIME,
                ap_config=APConfig(sparse_enabled=sparse_enabled),
            )
            saturating_udp_download(tb)
            window_us = tb.run(6.0, 2.0)
            return sum(tb.tracker.throughput_bps(i, window_us)
                       for i in range(3)) / 1e6

        assert bulk_total_mbps(True) > 0.97 * bulk_total_mbps(False)
