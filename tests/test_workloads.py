"""Tests for workload helpers and cross-cutting AC behaviour."""

from __future__ import annotations

import pytest

from repro.core.packet import AccessCategory, Packet, flow_id_allocator
from repro.experiments.config import (
    UDP_SATURATION_BPS_FAST,
    UDP_SATURATION_BPS_SLOW,
    four_station_rates,
    thirty_station_rates,
    three_station_rates,
)
from repro.experiments.workloads import (
    add_pings,
    saturating_udp_download,
    tcp_bidir,
    tcp_download,
    udp_rate_for,
)
from repro.mac.ap import Scheme
from repro.phy.rates import RATE_FAST, RATE_LEGACY_1M, RATE_SLOW
from repro.traffic.ping import PingFlow
from repro.traffic.udp import UdpDownloadFlow
from tests.conftest import make_testbed


class TestRateConfigs:
    def test_three_station_rates(self):
        rates = three_station_rates()
        assert [r.mbps for r in rates] == pytest.approx([144.4, 144.4, 7.2])

    def test_four_station_adds_virtual_fast(self):
        rates = four_station_rates()
        assert len(rates) == 4
        assert rates[3].mbps == pytest.approx(144.4)

    def test_thirty_station_layout(self):
        rates = thirty_station_rates()
        assert len(rates) == 30
        assert rates[0] is RATE_LEGACY_1M
        assert all(r.ht for r in rates[1:])

    def test_udp_rate_for_fast_vs_slow(self):
        assert udp_rate_for(RATE_FAST) == UDP_SATURATION_BPS_FAST
        assert udp_rate_for(RATE_SLOW) <= UDP_SATURATION_BPS_SLOW
        # Never offer wildly beyond what a slow PHY could even queue up.
        assert udp_rate_for(RATE_LEGACY_1M) <= 4e6


class TestWorkloadWiring:
    def test_saturating_udp_attaches_one_flow_per_station(self):
        tb = make_testbed(Scheme.AIRTIME)
        flows = saturating_udp_download(tb)
        assert sorted(flows) == [0, 1, 2]

    def test_station_subset_selection(self):
        tb = make_testbed(Scheme.AIRTIME)
        flows = saturating_udp_download(tb, [1])
        assert list(flows) == [1]

    def test_tcp_download_attaches_one_connection_per_station(self):
        tb = make_testbed(Scheme.AIRTIME)
        conns = tcp_download(tb)
        assert sorted(conns) == [0, 1, 2]

    def test_flows_built_without_registration_hold_only_window_samples(self):
        """A collector subscribes to the measurement window itself: a
        flow built by hand, with no call to register it, reports only
        what arrived after the warm-up."""
        tb = make_testbed(Scheme.FIFO)
        replies = []
        ping = PingFlow(tb.sim, tb.server, tb.stations[2],
                        observer=lambda _, rtt: replies.append(
                            (tb.sim.now, rtt))).start()
        flow = UdpDownloadFlow(tb.sim, tb.server, tb.stations[2],
                               rate_bps=20e6).start()
        at_start = []
        tb.sim.at_window_start(lambda: at_start.append(
            (flow.sink.rx_packets, flow.sink.rx_bytes)))
        window_us = tb.run(0.5, 0.5)
        start = tb.sim.window_start_us
        assert start == 500_000.0 and window_us == 500_000.0
        warmup = [rtt for t, rtt in replies if t <= start]
        assert warmup and ping.rtts_us == [rtt for t, rtt in replies
                                           if t > start]
        (packets, size), = at_start
        assert 0 < packets < flow.sink.rx_packets
        assert flow.sink.delay.count == flow.sink.rx_packets - packets
        assert flow.sink.window_throughput_bps() == pytest.approx(
            8 * (flow.sink.rx_bytes - size) / 0.5)

    def test_tcp_bidir_creates_both_directions(self):
        tb = make_testbed(Scheme.AIRTIME)
        pairs = tcp_bidir(tb, [0])
        assert set(pairs[0]) == {"down", "up"}
        tb.sim.run(until_us=2_000_000.0)
        assert pairs[0]["down"].delivered_bytes > 0
        assert pairs[0]["up"].delivered_bytes > 0

    def test_pings_are_staggered(self):
        tb = make_testbed(Scheme.AIRTIME)
        pings = add_pings(tb)
        tb.sim.run(until_us=500_000.0)
        assert all(p.tx_probes >= 4 for p in pings.values())


class TestVoUplink:
    def test_client_vo_packet_preempts_its_be_backlog(self):
        tb = make_testbed(Scheme.AIRTIME)
        order = []
        be_flow, vo_flow = flow_id_allocator(), flow_id_allocator()
        tb.server.register_handler(be_flow, lambda p: order.append("be"))
        tb.server.register_handler(vo_flow, lambda p: order.append("vo"))
        for i in range(200):
            tb.stations[0].send(Packet(be_flow, 1500, seq=i))
        tb.stations[0].send(
            Packet(vo_flow, 172, ac=AccessCategory.VO, seq=0)
        )
        tb.sim.run()
        assert "vo" in order
        assert order.index("vo") < 30


class TestOtherAccessCategories:
    @pytest.mark.parametrize("ac", [AccessCategory.BK, AccessCategory.VI])
    def test_bk_and_vi_delivered_downstream(self, ac):
        """The non-BE, non-VO categories ride the normal aggregating path."""
        tb = make_testbed(Scheme.FQ_MAC)
        received = []
        flow = flow_id_allocator()
        tb.stations[0].register_handler(flow, received.append)
        for i in range(10):
            tb.server.send(Packet(flow, 1500, dst_station=0, ac=ac, seq=i))
        tb.sim.run()
        assert len(received) == 10


class TestFormatters:
    def test_empty_results_do_not_crash(self):
        from repro.experiments import fairness_index, latency, web

        assert "Jain" in fairness_index.format_table([])
        assert "RTT" in latency.format_table([])
        assert "page load" in web.format_table([])
