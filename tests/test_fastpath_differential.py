"""Differential tests for the downlink fast paths.

The per-packet path takes shortcuts (DESIGN.md, "downlink hot path");
each one here runs beside the plain formulation it must equal, on inputs
Hypothesis chooses:

* ``MacFqStructure.enqueue`` / ``dequeue`` against Algorithms 1–2
  spelled out with ``hash_flow``, ``FlowQueue`` / ``TidState`` methods
  and ``codel_dequeue`` — the single CoDel state machine;
* the access point's fill pass, counted: Algorithm 3 is entered when a
  hardware slot can be filled, not once per arriving packet;
* ``QuantileSketch.observe_many`` and the station's per-flow burst
  delivery against one ``observe`` / one handler call per packet.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codel import (
    CODEL_DEFAULT,
    CODEL_SLOW_STATION,
    PerStationCoDelTuner,
    codel_dequeue,
)
from repro.core.fq_codel import hash_flow
from repro.core.mac_fq import MacFqStructure
from repro.core.packet import AccessCategory, Packet
from repro.experiments import workloads
from repro.experiments.config import three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.mac.aggregation import Aggregate
from repro.mac.ap import Scheme
from repro.mac.station import ClientStation
from repro.phy.rates import HT20_MCS_TABLE
from repro.sim.engine import Simulator
from repro.telemetry import QuantileSketch
from repro.traffic.udp import UdpSink


# ----------------------------------------------------------------------
# Algorithms 1-2: the structure's own enqueue/dequeue vs the reference
# ----------------------------------------------------------------------
class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _reference_enqueue(fq: MacFqStructure, pkt: Packet, tid) -> None:
    """Algorithm 1, one small method per line of the paper."""
    if fq.backlog_packets >= fq.limit:
        fq._drop_from_longest_queue()
    queue = fq._queues[hash_flow(pkt.flow_id, len(fq._queues))]
    if queue.tid is not None and queue.tid is not tid:
        queue = tid.overflow_queue
    queue.tid = tid
    pkt.enqueue_us = fq._now()
    queue.append(pkt)
    tid.backlog += 1
    fq.backlog_packets += 1
    if queue.membership is None:
        queue.deficit = fq.quantum
        tid.add_new(queue)


def _reference_dequeue(fq: MacFqStructure, tid):
    """Algorithm 2 with every CoDel decision left to ``codel_dequeue``."""
    now = fq._now()
    params = fq.codel_tuner.params_for(tid.station)
    while True:
        queue = tid.schedulable_queue()
        if queue is None:
            return None
        if queue.deficit <= 0:
            queue.deficit += fq.quantum
            tid.move_to_old(queue)
            continue
        pkt = codel_dequeue(
            queue, queue.codel, now, params,
            on_drop=lambda p, q=queue: fq._account_drop(q, p, "codel"),
        )
        if pkt is None:
            if queue.membership == "new":
                tid.move_to_old(queue)
            else:
                tid.delete_queue(queue)
            continue
        queue.deficit -= pkt.size
        tid.backlog -= 1
        fq.backlog_packets -= 1
        return pkt


class _Side:
    """One structure plus everything observable about it."""

    def __init__(self, num_queues: int, limit: int) -> None:
        self.clock = _Clock()
        tuner = PerStationCoDelTuner()
        tuner.update_rate(1, 6.5e6, 0.0)  # station 1 is a slow station
        assert tuner.params_for(0) is CODEL_DEFAULT
        assert tuner.params_for(1) is CODEL_SLOW_STATION
        self.drops: list = []
        self.fq = MacFqStructure(
            self.clock, num_queues=num_queues, limit=limit,
            codel_tuner=tuner,
            on_drop=lambda pkt, reason: self.drops.append(
                (pkt.pid, pkt.dst_station, reason)),
        )
        self.tids = {s: self.fq.tid(s, AccessCategory.BE) for s in (0, 1)}
        self.delivered: list = []

    def state(self) -> tuple:
        fq = self.fq
        queues = fq._queues + [t.overflow_queue for t in fq.tids()]
        return (
            fq.backlog_packets, fq.drops_overlimit, fq.drops_codel,
            [(t.backlog, [q.index for q in t.new_queues],
              [q.index for q in t.old_queues]) for t in fq.tids()],
            [(q.index, q.membership, q.deficit, q.byte_backlog,
              [p.pid for p in q.pkts],
              None if q.tid is None else q.tid.station,
              q.codel.first_above_time_us, q.codel.drop_next_us,
              q.codel.count, q.codel.lastcount, q.codel.dropping,
              q.codel.drops) for q in queues],
        )


# One round: a burst into one flow, a clock advance, a few dequeues from
# one station.  Arrivals outpace departures on average and the advances
# straddle target (5 / 50 ms) and interval (100 / 300 ms), so queues
# stand above target long enough to enter, hold and leave the dropping
# state -- with both parameter sets (flow % 2 picks the station, so a
# station has up to three queues on its DRR lists).
_ROUNDS = st.lists(
    st.tuples(
        st.integers(1, 6),                      # flow
        st.integers(0, 8),                      # packets enqueued
        st.sampled_from((60, 576, 1500)),       # their size
        st.sampled_from((0.0, 10.0, 900.0, 4_000.0, 20_000.0, 60_000.0,
                         120_000.0, 350_000.0)),
        st.integers(0, 1),                      # station dequeued from
        st.integers(0, 5),                      # dequeue attempts
    ),
    min_size=1, max_size=80,
)


def _run_both(rounds, n_flows: int, num_queues: int, limit: int) -> _Side:
    """Drive ``rounds`` through the structure and the reference; every
    observable must agree after every round."""
    fast, ref = _Side(num_queues, limit), _Side(num_queues, limit)
    pid = 0
    for flow, n_enq, size, advance_us, station, n_deq in rounds:
        flow = 1 + (flow - 1) % n_flows
        for _ in range(n_enq):
            pid += 1
            for side in (fast, ref):
                pkt = Packet(flow, size, dst_station=flow % 2)
                pkt.pid = pid
                if side is fast:
                    side.fq.enqueue(pkt, side.tids[flow % 2])
                else:
                    _reference_enqueue(side.fq, pkt, side.tids[flow % 2])
        fast.clock.now += advance_us
        ref.clock.now += advance_us
        for _ in range(n_deq):
            got = fast.fq.dequeue(fast.tids[station])
            want = _reference_dequeue(ref.fq, ref.tids[station])
            fast.delivered.append(got and got.pid)
            ref.delivered.append(want and want.pid)
        assert fast.delivered == ref.delivered
        assert fast.drops == ref.drops
        assert fast.state() == ref.state()
    return fast


@settings(max_examples=150, deadline=None)
@given(rounds=_ROUNDS, n_flows=st.integers(1, 6),
       num_queues=st.sampled_from((1, 2, 8, 11)),
       limit=st.sampled_from((6, 24, 1024)))
def test_mac_fq_matches_the_reference_algorithms(rounds, n_flows, num_queues,
                                                 limit):
    _run_both(rounds, n_flows, num_queues, limit)


def test_mac_fq_matches_the_reference_on_a_standing_queue():
    """The states a saturated station lives in.  Three flows per station
    each take two packets in and give one out per 6 ms for a simulated
    second: CoDel enters dropping and mostly sits between two scheduled
    drops.  Then arrivals slow to a trickle and the queues drain, so a
    fresh head turns up while its queue is still in the dropping state."""
    flows = (1, 2, 3, 4, 5, 6)
    build_up = [(flow, 2, 1500, 1_000.0, flow % 2, 1)
                for _ in range(170) for flow in flows]
    drain = [(flow, 1, 1500, 1_000.0, flow % 2, 4)
             for _ in range(120) for flow in flows]
    fast = _run_both(build_up + drain, n_flows=6, num_queues=8, limit=4096)
    by_station = {0: 0, 1: 0}
    for _pid, station, reason in fast.drops:
        assert reason == "codel"
        by_station[station] += 1
    # 5 ms / 100 ms parameters drop sooner and faster than 50 / 300 ms.
    assert by_station[0] > by_station[1] > 3
    assert fast.fq.backlog_packets < 12


# ----------------------------------------------------------------------
# Algorithm 3 runs per hardware slot, not per packet
# ----------------------------------------------------------------------
def test_schedule_is_entered_at_most_twice_per_aggregate():
    testbed = Testbed(three_station_rates(),
                      TestbedOptions(scheme=Scheme.AIRTIME, seed=1))
    workloads.saturating_udp_download(testbed)
    scheduler = testbed.ap.scheduler
    schedule = scheduler.schedule
    counts = {"schedule": 0, "aggregates": 0, "arrivals": 0}

    def counted_schedule() -> None:
        counts["schedule"] += 1
        schedule()

    def on_transmission(record) -> None:
        counts["aggregates"] += record.downlink

    scheduler.schedule = counted_schedule
    testbed.medium.add_observer(on_transmission)
    testbed.run(1.0)
    counts["arrivals"] = testbed.ap.downlink_enqueued
    # Saturated: many arrivals per aggregate, yet the scheduler runs once
    # per completed transmission plus the rare arrival that finds a slot.
    assert counts["arrivals"] > 10 * counts["aggregates"] > 1000
    assert counts["schedule"] <= 2 * counts["aggregates"]


# ----------------------------------------------------------------------
# Burst delivery: one call per aggregate, the state of one per packet
# ----------------------------------------------------------------------
def _sketch_state(sketch: QuantileSketch) -> tuple:
    return (sketch._means, sketch._weights, sketch._buffer, sketch._count,
            sketch._total, sketch._m2, sketch._min, sketch._max)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(0.0, 1e7), max_size=400),
       bursts=st.lists(st.integers(0, 90), min_size=1, max_size=40))
def test_observe_many_is_exactly_repeated_observe(values, bursts):
    # max_centroids=8 flushes every 32 samples, so bursts of up to 90
    # straddle the boundary once, twice, or land exactly on it.
    one_by_one, in_bursts = QuantileSketch(8), QuantileSketch(8)
    start = 0
    for size in bursts:
        burst = values[start:start + size]
        start += size
        for value in burst:
            one_by_one.observe(value)
        in_bursts.observe_many(burst)
        assert _sketch_state(in_bursts) == _sketch_state(one_by_one)
    assert in_bursts.quantiles((0.5, 0.99)) == one_by_one.quantiles((0.5, 0.99))
    assert in_bursts.variance == one_by_one.variance


@settings(max_examples=100, deadline=None)
@given(aggregates=st.lists(
    st.lists(st.tuples(st.sampled_from((1, 1, 1, 2, 3)),   # flow
                       st.integers(60, 1500),             # size
                       st.floats(0.0, 5e5)),              # age, us
             min_size=1, max_size=40),
    min_size=1, max_size=30))
def test_burst_delivery_leaves_the_sinks_as_per_packet_delivery(aggregates):
    """Flow 1 and 2 have sinks (burst handlers), flow 3 has no handler;
    aggregates mix them or carry a single flow."""
    sim = Simulator()
    station = ClientStation(0, HT20_MCS_TABLE[7], sim)
    sinks = {flow: UdpSink(sim) for flow in (1, 2)}
    # Per packet, spelled out: bytes, count, one observe() each.
    reference = {flow: [0, 0, QuantileSketch()] for flow in (1, 2)}
    calls = {"burst": 0}

    def counting(on_burst):
        def burst(packets):
            calls["burst"] += 1
            on_burst(packets)
        return burst

    for flow, sink in sinks.items():
        station.register_handler(flow, sink.on_packet,
                                 burst=counting(sink.on_burst))
    expected_bursts = 0
    for spec in aggregates:
        sim.now += 1_000.0
        packets = []
        for flow, size, age_us in spec:
            pkt = Packet(flow, size, dst_station=0)
            pkt.created_us = sim.now - min(age_us, sim.now)
            packets.append(pkt)
        for pkt in packets:
            if pkt.flow_id in reference:
                ref = reference[pkt.flow_id]
                ref[0] += pkt.size
                ref[1] += 1
                ref[2].observe(sim.now - pkt.created_us)
        flows = {flow for flow, _, _ in spec}
        expected_bursts += len(flows) == 1 and flows <= set(sinks)
        station.receive_from_ap(Aggregate(0, AccessCategory.BE,
                                          station.rate, packets))
    assert calls["burst"] == expected_bursts
    assert station.rx_packets == sum(len(spec) for spec in aggregates)
    for flow, sink in sinks.items():
        n_bytes, n_packets, delay = reference[flow]
        assert (sink.rx_bytes, sink._window_bytes, sink.rx_packets) == \
            (n_bytes, n_bytes, n_packets)
        assert _sketch_state(sink.delay) == _sketch_state(delay)
