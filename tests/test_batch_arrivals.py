"""Batched arrival generation: chunk generators and the UDP flow.

The contract under test is *bit-equivalence to the legacy path*: a
``UdpDownloadFlow`` replaying ``cbr_chunks`` timestamps must fire at
exactly the floats a ``PeriodicTimer``'s repeated ``now + interval``
left fold produces, chunking must never change the chain, and the
engine's ``schedule_call`` fast path must share ordering semantics
(tie-break sequence numbers included) with the Event-based ``schedule``.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.station import ClientStation
from repro.phy.rates import HT20_MCS_TABLE
from repro.sim.engine import PeriodicTimer, SimulationError, Simulator
from repro.traffic.arrivals import cbr_chunks
from repro.traffic.udp import UdpDownloadFlow


def _take(iterator, n_chunks):
    return list(itertools.islice(iterator, n_chunks))


class TestCbrChunks:
    def test_matches_periodic_timer_left_fold(self):
        """The chain must be the same left fold of double adds a
        re-arming timer performs — bit-identical floats, not just
        approximately equal ones."""
        interval = 10.0 / 3.0  # denormal-free but non-representable step
        legacy = []
        t = interval
        for _ in range(10_000):
            legacy.append(t)
            t = t + interval
        chunked = [
            t for chunk in _take(cbr_chunks(interval, interval, 256), 40)
            for t in chunk
        ]
        assert chunked[:len(legacy)] == legacy  # exact float equality

    def test_chunk_size_does_not_change_the_chain(self):
        interval = 7.7
        a = [t for c in _take(cbr_chunks(interval, interval, 16), 64)
             for t in c]
        b = [t for c in _take(cbr_chunks(interval, interval, 1024), 1)
             for t in c]
        assert a[:1024] == b

    @given(start=st.floats(0.0, 1e9), interval=st.floats(1e-3, 1e6),
           chunk_size=st.integers(1, 64))
    @settings(max_examples=150, deadline=None)
    def test_any_start_interval_and_chunk_size_is_the_left_fold(
            self, start, interval, chunk_size):
        legacy = []
        t = start
        for _ in range(4 * chunk_size):
            legacy.append(t)
            t = t + interval
        chunked = [t for c in _take(cbr_chunks(start, interval, chunk_size),
                                    4) for t in c]
        assert chunked == legacy

    def test_yields_python_floats(self):
        chunk = next(cbr_chunks(5.0, 5.0, 8))
        assert all(type(t) is float for t in chunk)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            next(cbr_chunks(0.0, 0.0))
        with pytest.raises(ValueError):
            next(cbr_chunks(0.0, 1.0, chunk_size=0))


class _Wire:
    """The network as a flow sees it: an AP-side target and a delay."""

    def __init__(self, sim, delay_us=0.0, on_arrival=None):
        self.sim = sim
        self.delay_us = delay_us
        self.on_arrival = on_arrival
        #: (created_us, arrival time) per delivered packet.
        self.arrivals = []

    def _deliver_down(self, pkt):
        self.arrivals.append((pkt.created_us, self.sim.now))
        if self.on_arrival is not None:
            self.on_arrival()


def _flow(sim, wire, interval_us=1.0):
    """A UDP flow of 1-byte packets every ``interval_us`` into ``wire``."""
    station = ClientStation(0, HT20_MCS_TABLE[7], sim)
    server = SimpleNamespace(network=wire)
    flow = UdpDownloadFlow(sim, server, station, rate_bps=8e6 / interval_us,
                           packet_size=1)
    assert flow.interval_us == interval_us
    return flow


class TestBatchSource:
    """``UdpDownloadFlow`` as a batched source: it replays ``cbr_chunks``
    timestamps one heap entry at a time, the packet sent at ``t``
    arriving at ``t`` plus the wire delay."""

    def test_fires_at_exact_timestamps(self, sim):
        wire = _Wire(sim)
        flow = _flow(sim, wire, interval_us=1.5).start(delay_us=1.0)
        sim.run(until_us=9.0)
        assert [now for _, now in wire.arrivals] == [1.0, 2.5, 4.0, 5.5,
                                                     7.0, 8.5]
        assert flow.tx_packets == 6

    def test_one_live_heap_entry_per_source(self, sim):
        _flow(sim, _Wire(sim)).start(delay_us=1.0)
        assert sim.pending_events == 1  # only the next arrival is armed
        sim.run(until_us=1.5)
        assert sim.pending_events == 1

    def test_stop_makes_pending_fire_inert(self, sim):
        wire = _Wire(sim)
        flow = _flow(sim, wire).start(delay_us=1.0)
        sim.run(until_us=3.5)
        flow.stop()
        sim.run(until_us=10.0)
        assert [now for _, now in wire.arrivals] == [1.0, 2.0, 3.0]
        assert flow.tx_packets == 3
        assert sim.pending_events == 0

    def test_stop_from_within_callback(self, sim):
        wire = _Wire(sim, on_arrival=lambda: flow.stop())
        flow = _flow(sim, wire).start(delay_us=1.0)
        sim.run(until_us=10.0)
        assert flow.tx_packets == 1

    def test_fired_counts_across_chunk_boundaries(self, sim):
        """10,000 arrivals cross two 4096-stamp chunks without a gap or
        a repeat: every stamp is the next step of the left fold."""
        wire = _Wire(sim)
        flow = _flow(sim, wire, interval_us=10.0 / 3.0).start(
            delay_us=10.0 / 3.0)
        sim.run(until_us=10_000 * 10.0 / 3.0 + 1.0)
        chain = [10.0 / 3.0]
        while len(chain) < 10_000:
            chain.append(chain[-1] + 10.0 / 3.0)
        assert flow.tx_packets == 10_000
        assert [sent for sent, _ in wire.arrivals] == chain

    def test_latency_fires_late_and_reports_the_stamp(self, sim):
        wire = _Wire(sim, delay_us=0.75)
        flow = _flow(sim, wire, interval_us=1.5).start(delay_us=1.0)
        assert sim.pending_events == 1  # still one entry per source
        sim.run(until_us=5.0)
        assert wire.arrivals == [(1.0, 1.75), (2.5, 3.25), (4.0, 4.75)]
        assert flow.tx_packets == 3

    def test_stop_lets_arrivals_already_under_way_fire(self, sim):
        """Stamps before the stop instant arrive even when the wire
        carries them past it; stamps at or after it never do."""
        wire = _Wire(sim, delay_us=2.5)
        flow = _flow(sim, wire).start(delay_us=1.0)
        sim.run(until_us=4.0)       # 1.0 arrived at 3.5; 2.0 and 3.0 in flight
        flow.stop()
        sim.run(until_us=20.0)
        assert [sent for sent, _ in wire.arrivals] == [1.0, 2.0, 3.0]
        assert sim.pending_events == 0

    def test_equivalent_to_periodic_timer_interleaving(self):
        """A flow and a PeriodicTimer driving the same interval
        interleave identically with a competing event stream — the
        fire-then-re-arm order consumes tie-break seqs the same way."""
        def drive(make_source):
            sim = Simulator()
            log = []
            source = make_source(sim, lambda: log.append(("arrival",
                                                          sim.now)))

            def competing():
                log.append(("other", sim.now))
            for k in range(1, 12):
                sim.schedule(float(k), competing)  # ties on every integer t
            sim.run(until_us=11.0)
            source.stop()
            return log

        def flow(sim, on_arrival):
            return _flow(sim, _Wire(sim, on_arrival=on_arrival)).start(
                delay_us=1.0)

        flow_log = drive(flow)
        timer_log = drive(lambda sim, cb: PeriodicTimer(sim, 1.0, cb).start())
        assert flow_log == timer_log


class TestScheduleCallFastPath:
    def test_schedule_call_orders_with_schedule(self, sim):
        order = []
        sim.schedule(5.0, lambda: order.append("event"))
        sim.schedule_call(5.0, order.append, "call-arg")
        sim.schedule_call(5.0, lambda: order.append("call-noarg"))
        sim.run()
        assert order == ["event", "call-arg", "call-noarg"]

    def test_schedule_call_at_verbatim_timestamp(self, sim):
        seen = []
        sim.schedule_call_at(3.25, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.25]

    def test_schedule_call_counts_as_pending_and_processed(self, sim):
        sim.schedule_call(1.0, lambda: None)
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_processed == 1

    def test_past_scheduling_raises(self, sim):
        sim.schedule_call(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_call(-0.5, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_call_at(0.5, lambda: None)
