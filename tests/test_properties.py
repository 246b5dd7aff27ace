"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fairness import jain_index
from repro.analysis.mos import estimate_mos, mos_from_r
from repro.analysis.stats import percentile
from repro.core.mac_fq import MacFqStructure
from repro.core.packet import AccessCategory, Packet
from repro.phy.rates import RATE_FAST, RATE_SLOW
from repro.phy.timing import (
    data_tx_time_us,
    expected_rate_bps,
    mpdu_length,
)
from repro.traffic.tcp import _Receiver
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# PHY timing
# ----------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=65_000))
def test_mpdu_length_padding_invariants(payload):
    length = mpdu_length(payload)
    assert length % 4 == 0
    assert payload + 42 <= length < payload + 42 + 4


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=64, max_value=3000))
def test_airtime_monotone_in_aggregate_size(n, size):
    shorter = data_tx_time_us(n, size, RATE_FAST)
    longer = data_tx_time_us(n + 1, size, RATE_FAST)
    assert longer > shorter


@given(st.integers(min_value=1, max_value=64))
def test_goodput_monotone_in_aggregation(n):
    assert expected_rate_bps(n + 1, 1500, RATE_FAST) > expected_rate_bps(
        n, 1500, RATE_FAST
    )


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=100, max_value=3000))
def test_goodput_never_exceeds_phy_rate(n, size):
    for rate in (RATE_FAST, RATE_SLOW):
        assert expected_rate_bps(n, size, rate) < rate.bps


# ----------------------------------------------------------------------
# Fairness / statistics
# ----------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_jain_index_bounds(values):
    index = jain_index(values)
    assert 0.0 <= index <= 1.0 + 1e-9
    if sum(values) > 0:
        assert index >= 1.0 / len(values) - 1e-9


@given(st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=1, max_size=30),
       st.floats(min_value=0, max_value=100))
def test_percentile_within_sample_range(samples, pct):
    value = percentile(samples, pct)
    assert min(samples) - 1e-9 <= value <= max(samples) + 1e-9


@given(st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=2, max_size=30))
def test_percentile_monotone_in_pct(samples):
    p25 = percentile(samples, 25)
    p75 = percentile(samples, 75)
    assert p25 <= p75 + 1e-9


# ----------------------------------------------------------------------
# MOS model
# ----------------------------------------------------------------------
@given(st.floats(min_value=-1e3, max_value=1e3))
def test_mos_always_in_model_range(r):
    assert 1.0 <= mos_from_r(r) <= 4.5


@given(st.floats(min_value=0, max_value=2000), st.floats(min_value=0, max_value=200),
       st.floats(min_value=0, max_value=1))
def test_estimate_mos_total(delay, jitter, loss):
    assert 1.0 <= estimate_mos(delay, jitter, loss) <= 4.5


@given(st.floats(min_value=0, max_value=0.5))
def test_mos_monotone_in_loss(loss):
    assert estimate_mos(20.0, 1.0, loss) >= estimate_mos(20.0, 1.0, loss + 0.05) - 1e-9


# ----------------------------------------------------------------------
# MacFq conservation
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=12),   # flow id
            st.integers(min_value=0, max_value=3),    # tid index
            st.integers(min_value=64, max_value=1500),  # size
        ),
        min_size=1,
        max_size=300,
    ),
    limit=st.integers(min_value=4, max_value=64),
)
def test_mac_fq_conservation_and_limit(ops, limit):
    """Whatever the arrival pattern: backlog never exceeds the global
    limit, and in = out + dropped."""
    now = [0.0]
    fq = MacFqStructure(lambda: now[0], num_queues=16, limit=limit)
    tids = [fq.tid(i, AccessCategory.BE) for i in range(4)]
    enqueued = 0
    for flow, tid_idx, size in ops:
        fq.enqueue(tids[tid_idx], Packet(flow, size))
        enqueued += 1
        assert fq.backlog_packets <= limit
    dequeued = 0
    for tid in tids:
        while fq.dequeue(tid) is not None:
            dequeued += 1
    assert dequeued + fq.total_drops == enqueued
    assert fq.backlog_packets == 0
    for tid in tids:
        assert tid.backlog == 0


@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(min_value=1, max_value=6),
                  st.integers(min_value=64, max_value=1500)),
        min_size=1, max_size=200,
    )
)
def test_mac_fq_per_flow_order_preserved(ops):
    """Packets of the same flow always dequeue in enqueue order."""
    now = [0.0]
    fq = MacFqStructure(lambda: now[0], num_queues=16, limit=10_000)
    tid = fq.tid(0, AccessCategory.BE)
    seq_per_flow: dict[int, int] = {}
    for flow, size in ops:
        seq = seq_per_flow.get(flow, 0)
        seq_per_flow[flow] = seq + 1
        fq.enqueue(tid, Packet(flow, size, seq=seq))
    seen: dict[int, int] = {}
    while True:
        pkt = fq.dequeue(tid)
        if pkt is None:
            break
        last = seen.get(pkt.flow_id, -1)
        assert pkt.seq > last
        seen[pkt.flow_id] = pkt.seq


# ----------------------------------------------------------------------
# TCP receiver range bookkeeping
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(st.permutations(list(range(12))))
def test_tcp_receiver_reassembles_any_arrival_order(order):
    from repro.core.packet import Packet as Pkt

    sim = Simulator()
    acks = []
    receiver = _Receiver(sim, lambda a, s: acks.append((a, s)))
    for seq in order:
        receiver.on_data(Pkt(1, 1500, seq=seq))
    assert receiver.rcv_nxt == 12
    # SACK ranges must always be disjoint, sorted, above rcv_nxt at the
    # time they were emitted.
    for _, sack in acks:
        for (s1, e1), (s2, e2) in zip(sack, sack[1:]):
            assert e1 < s2
        for s, e in sack:
            assert s < e


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=60))
def test_tcp_receiver_idempotent_under_duplicates(seqs):
    from repro.core.packet import Packet as Pkt

    sim = Simulator()
    receiver = _Receiver(sim, lambda a, s: None)
    for seq in seqs:
        receiver.on_data(Pkt(1, 1500, seq=seq))
    distinct = len(set(seqs) & set(range(0, max(seqs) + 1)))
    # rcv_nxt equals the length of the contiguous prefix received.
    expected = 0
    got = set(seqs)
    while expected in got:
        expected += 1
    assert receiver.rcv_nxt == expected
