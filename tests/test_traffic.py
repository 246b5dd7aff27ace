"""Tests for UDP, ping, and VoIP traffic generators."""

from __future__ import annotations

import pytest

from repro.core.packet import AccessCategory
from repro.mac.ap import Scheme
from repro.net.wire import Server
from repro.traffic.ping import PingFlow
from repro.traffic.udp import UdpDownloadFlow
from repro.traffic.voip import VOIP_INTERVAL_US, VOIP_PACKET_BYTES, VoipFlow
from tests.conftest import make_testbed


class TestUdpFlow:
    def test_cbr_rate_is_respected(self):
        tb = make_testbed(Scheme.AIRTIME)
        flow = UdpDownloadFlow(tb.sim, tb.server, tb.stations[0],
                               rate_bps=12_000_000.0).start()
        tb.sim.run(until_us=1_000_000.0)
        # 12 Mbps of 1500B packets = 1000 pps.
        assert flow.tx_packets == pytest.approx(1000, abs=2)

    def test_sink_counts_goodput(self):
        tb = make_testbed(Scheme.AIRTIME)
        flow = UdpDownloadFlow(tb.sim, tb.server, tb.stations[0],
                               rate_bps=8_000_000.0).start()
        tb.sim.run(until_us=1_000_000.0)
        tb.sim.start_window()
        tb.sim.run(until_us=2_000_000.0)
        measured = flow.sink.window_throughput_bps()
        assert measured == pytest.approx(8_000_000.0, rel=0.05)

    def test_delay_samples_collected(self):
        tb = make_testbed(Scheme.AIRTIME)
        flow = UdpDownloadFlow(tb.sim, tb.server, tb.stations[0],
                               rate_bps=1_000_000.0).start()
        tb.sim.run(until_us=500_000.0)
        assert flow.sink.delay.count > 0
        assert flow.sink.delay.to_dict()["min"] > 0

    def test_stop_halts_emission(self):
        tb = make_testbed(Scheme.AIRTIME)
        flow = UdpDownloadFlow(tb.sim, tb.server, tb.stations[0],
                               rate_bps=1_000_000.0).start()
        tb.sim.schedule(200_000.0, flow.stop)
        tb.sim.run(until_us=1_000_000.0)
        assert flow.tx_packets < 250

    def test_stop_between_arrivals_lets_the_wire_drain(self):
        """Packets sent before the stop instant and still on the wire
        arrive; nothing stamped after it is ever created."""
        tb = make_testbed(Scheme.AIRTIME, wire_delay_us=5_000.0)
        # 1000 pps to the slow station: more than it can carry, so the
        # AP is still holding packets when the run ends.
        flow = UdpDownloadFlow(tb.sim, tb.server, tb.stations[2],
                               rate_bps=12_000_000.0).start()
        assert flow.interval_us == 1_000.0
        stop_us = 600_500.0  # between the stamps 600_000 and 601_000
        tb.sim.run(until_us=stop_us)
        flow.stop()
        assert flow.tx_packets == 596  # stamps 0 .. 595_000 have landed
        tb.sim.run(until_us=700_000.0)
        assert flow.tx_packets == 601  # + 596_000 .. 600_000, then none
        resident = (tb.ap.resident_packets()
                    + tb.medium.inflight_downlink_packets())
        assert resident > 0 and tb.ap.drops.total > 0
        assert flow.tx_packets == (flow.sink.rx_packets + tb.ap.drops.total
                                   + resident)

    def test_start_without_a_network_raises(self):
        tb = make_testbed(Scheme.AIRTIME)
        flow = UdpDownloadFlow(tb.sim, Server(), tb.stations[0],
                               rate_bps=1_000_000.0)
        with pytest.raises(RuntimeError,
                           match="server not attached to a network"):
            flow.start()
        assert tb.sim.pending_events == 0

    def test_invalid_rate(self):
        tb = make_testbed(Scheme.AIRTIME)
        with pytest.raises(ValueError):
            UdpDownloadFlow(tb.sim, tb.server, tb.stations[0], rate_bps=0.0)


class TestPingFlow:
    def test_rtt_measured_on_idle_network(self):
        tb = make_testbed(Scheme.AIRTIME)
        ping = PingFlow(tb.sim, tb.server, tb.stations[0]).start()
        tb.sim.run(until_us=1_000_000.0)
        assert len(ping.rtts_ms) >= 9
        # Idle network: RTT = 2x wire delay + 2 WiFi TXOPs, well under 5ms.
        assert all(rtt < 5.0 for rtt in ping.rtts_ms)

    def test_rtt_includes_queueing_delay(self):
        tb = make_testbed(Scheme.FIFO)
        ping = PingFlow(tb.sim, tb.server, tb.stations[2]).start()
        UdpDownloadFlow(tb.sim, tb.server, tb.stations[2],
                        rate_bps=20_000_000.0).start()
        tb.sim.run(until_us=3_000_000.0)
        assert ping.rtts_ms
        assert max(ping.rtts_ms) > 10.0

    def test_reset_window_discards_samples(self):
        tb = make_testbed(Scheme.AIRTIME)
        ping = PingFlow(tb.sim, tb.server, tb.stations[0]).start()
        tb.sim.run(until_us=500_000.0)
        tb.sim.start_window()
        assert ping.rtts_ms == []

    def test_custom_interval(self):
        tb = make_testbed(Scheme.AIRTIME)
        ping = PingFlow(tb.sim, tb.server, tb.stations[0],
                        interval_us=10_000.0).start()
        tb.sim.run(until_us=500_000.0)
        assert ping.tx_probes == pytest.approx(50, abs=1)


class TestVoipFlow:
    def test_isochronous_emission(self):
        tb = make_testbed(Scheme.AIRTIME)
        voice = VoipFlow(tb.sim, tb.server, tb.stations[0]).start()
        tb.sim.run(until_us=1_000_000.0)
        assert voice.tx_packets == pytest.approx(50, abs=1)  # 20ms spacing

    def test_good_network_gives_high_mos(self):
        tb = make_testbed(Scheme.AIRTIME)
        voice = VoipFlow(tb.sim, tb.server, tb.stations[0]).start()
        tb.sim.run(until_us=3_000_000.0)
        voice.stop()
        tb.sim.run(until_us=4_000_000.0)
        stats = voice.stats()
        assert stats.mos > 4.3
        assert stats.loss_fraction == 0.0

    def test_loss_lowers_mos(self):
        from repro.analysis.mos import estimate_mos

        clean = estimate_mos(20.0, 1.0, 0.0)
        lossy = estimate_mos(20.0, 1.0, 0.10)
        assert lossy < clean - 1.0

    def test_vo_marking_propagates(self):
        tb = make_testbed(Scheme.AIRTIME)
        voice = VoipFlow(tb.sim, tb.server, tb.stations[0],
                         ac=AccessCategory.VO).start()
        tb.sim.run(until_us=200_000.0)
        assert voice.rx_in_window  # delivered through the VO path

    def test_reset_window_restarts_loss_accounting(self):
        tb = make_testbed(Scheme.AIRTIME)
        voice = VoipFlow(tb.sim, tb.server, tb.stations[0]).start()
        tb.sim.run(until_us=1_000_000.0)
        tb.sim.start_window()
        tb.sim.run(until_us=2_000_000.0)
        stats = voice.stats()
        assert stats.samples == pytest.approx(50, abs=2)

    def test_packet_parameters_are_g711(self):
        assert VOIP_PACKET_BYTES == 172
        assert VOIP_INTERVAL_US == 20_000.0
