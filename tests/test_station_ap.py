"""Integration tests for client stations and the access point."""

from __future__ import annotations

import pytest

from repro.core.airtime import AirtimeScheduler
from repro.core.mac_fq import IntegratedStack
from repro.core.packet import AccessCategory, Packet, flow_id_allocator
from repro.core.station_rr import RoundRobinScheduler
from repro.mac.ap import ALL_SCHEMES, SCHEMES, APConfig, Scheme
from repro.mac.driver import QdiscStack
from repro.qdisc.fq_codel_qdisc import FqCodelQdisc
from repro.qdisc.pfifo import PfifoQdisc
from tests.conftest import make_testbed


def downstream(testbed, station=0, size=1500, seq=0, flow=None,
               ac=AccessCategory.BE):
    flow = flow if flow is not None else flow_id_allocator()
    pkt = Packet(flow, size, dst_station=station, seq=seq, ac=ac,
                 created_us=testbed.sim.now)
    testbed.server.send(pkt)
    return flow


class TestSchemeAssembly:
    """Each scheme is its ``SCHEMES`` row: the AP builds exactly the
    (stack, scheduler) the descriptor names."""

    @staticmethod
    def _row(scheme):
        ap = make_testbed(scheme).ap
        assert ap.descriptor is SCHEMES[scheme]
        return ap.stack, ap.scheduler, ap.descriptor.airtime_fair

    def test_fifo_uses_pfifo_and_driver(self):
        stack, scheduler, fair = self._row(Scheme.FIFO)
        assert type(stack) is QdiscStack
        assert type(stack.qdisc) is PfifoQdisc
        assert type(scheduler) is RoundRobinScheduler and not fair

    def test_fq_codel_uses_fq_codel_qdisc(self):
        stack, scheduler, fair = self._row(Scheme.FQ_CODEL)
        assert type(stack) is QdiscStack
        assert type(stack.qdisc) is FqCodelQdisc
        assert type(scheduler) is RoundRobinScheduler and not fair

    def test_fq_mac_bypasses_qdisc(self):
        stack, scheduler, fair = self._row(Scheme.FQ_MAC)
        assert type(stack) is IntegratedStack
        assert not hasattr(stack, "qdisc")
        assert type(scheduler) is RoundRobinScheduler and not fair

    def test_airtime_uses_airtime_scheduler(self):
        stack, scheduler, fair = self._row(Scheme.AIRTIME)
        assert type(stack) is IntegratedStack
        assert type(scheduler) is AirtimeScheduler and fair

    def test_table_has_exactly_the_four_schemes(self):
        assert tuple(SCHEMES) == ALL_SCHEMES == tuple(Scheme)

    def test_duplicate_station_rejected(self):
        tb = make_testbed(Scheme.AIRTIME)
        from repro.mac.station import ClientStation
        from repro.phy.rates import RATE_FAST

        with pytest.raises(ValueError):
            tb.ap.add_station(ClientStation(0, RATE_FAST, tb.sim))

    def test_slow_station_gets_relaxed_codel_params(self):
        from repro.core.codel import CODEL_SLOW_STATION

        tb = make_testbed(Scheme.AIRTIME)
        assert tb.ap.codel_tuner.params_for(2) is CODEL_SLOW_STATION


@pytest.mark.parametrize("scheme", list(Scheme))
class TestDownstreamDelivery:
    def test_packet_reaches_station(self, scheme):
        tb = make_testbed(scheme)
        received = []
        flow = flow_id_allocator()
        tb.stations[0].register_handler(flow, received.append)
        downstream(tb, station=0, flow=flow)
        tb.sim.run()
        assert len(received) == 1
        assert received[0].flow_id == flow

    def test_bulk_delivery_preserves_flow_order(self, scheme):
        tb = make_testbed(scheme)
        received = []
        flow = flow_id_allocator()
        tb.stations[1].register_handler(flow, lambda p: received.append(p.seq))
        for i in range(50):
            downstream(tb, station=1, flow=flow, seq=i)
        tb.sim.run()
        assert received == sorted(received)
        assert len(received) == 50

    def test_unknown_station_rejected(self, scheme):
        tb = make_testbed(scheme)
        with pytest.raises(ValueError):
            tb.ap.send_downstream(Packet(1, 100, dst_station=99))


@pytest.mark.parametrize("scheme", list(Scheme))
class TestUplink:
    def test_station_packet_reaches_server(self, scheme):
        tb = make_testbed(scheme)
        received = []
        flow = flow_id_allocator()
        tb.server.register_handler(flow, received.append)
        tb.stations[0].send(Packet(flow, 200, seq=1))
        tb.sim.run()
        assert len(received) == 1
        assert received[0].src_station == 0

    def test_uplink_airtime_charged_to_station(self, scheme):
        tb = make_testbed(scheme)
        flow = flow_id_allocator()
        tb.stations[2].send(Packet(flow, 1500))
        tb.sim.run()
        assert tb.tracker.uplink_airtime_us[2] > 0


class TestVoPath:
    def test_vo_delivered_under_every_scheme(self):
        for scheme in Scheme:
            tb = make_testbed(scheme)
            received = []
            flow = flow_id_allocator()
            tb.stations[0].register_handler(flow, received.append)
            downstream(tb, station=0, flow=flow, ac=AccessCategory.VO, size=172)
            tb.sim.run()
            assert len(received) == 1, scheme

    def test_vo_jumps_ahead_of_be_backlog(self):
        tb = make_testbed(Scheme.FQ_MAC)
        order = []
        be_flow, vo_flow = flow_id_allocator(), flow_id_allocator()
        tb.stations[0].register_handler(be_flow, lambda p: order.append("be"))
        tb.stations[0].register_handler(vo_flow, lambda p: order.append("vo"))
        for i in range(100):
            downstream(tb, station=0, flow=be_flow, seq=i)
        downstream(tb, station=0, flow=vo_flow, ac=AccessCategory.VO, size=172)
        tb.sim.run()
        # The VO packet must not be near the end of the delivery order.
        assert "vo" in order
        assert order.index("vo") < 20


class TestRetries:
    def test_lossy_medium_still_delivers_via_retries(self):
        tb = make_testbed(Scheme.AIRTIME, error_rate=0.3)
        received = []
        flow = flow_id_allocator()
        tb.stations[0].register_handler(flow, received.append)
        for i in range(20):
            downstream(tb, station=0, flow=flow, seq=i)
        tb.sim.run()
        assert len(received) == 20  # retry chain recovered every loss

    def test_retry_airtime_charged_per_attempt(self):
        tb = make_testbed(Scheme.AIRTIME, error_rate=0.5, seed=7)
        flow = flow_id_allocator()
        tb.stations[0].register_handler(flow, lambda p: None)
        downstream(tb, station=0, flow=flow)
        tb.sim.run()
        # More records than packets when retries occurred.
        assert tb.tracker.records >= 1


class TestDiagnostics:
    def test_total_queued_packets_spans_layers(self):
        tb = make_testbed(Scheme.FIFO)
        flow = flow_id_allocator()
        tb.stations[0].register_handler(flow, lambda p: None)
        for i in range(100):
            tb.ap.send_downstream(
                Packet(flow, 1500, dst_station=0, seq=i,
                       created_us=tb.sim.now)
            )
        # Before the simulator runs, everything is still queued (minus
        # what was already pushed into the 2-aggregate hardware queue).
        assert tb.ap.total_queued_packets() > 0
