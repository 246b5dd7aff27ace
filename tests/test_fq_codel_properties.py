"""Property tests for the shared-pool FQ structure (Algorithms 1–2).

Hypothesis drives random enqueue/dequeue interleavings over a tiny queue
pool (forcing hash collisions) and a tiny global limit (forcing
overlimit drops), then checks the invariant the whole MAC layer leans
on: every packet that enters the structure leaves it exactly once —
delivered or dropped, never lost, never duplicated — regardless of
collisions and new/old-queue rotation.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fq_codel import hash_flow
from repro.core.mac_fq import MacFqStructure
from repro.core.packet import AccessCategory, Packet


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 10.0  # μs per operation; keeps CoDel timestamps sane
        return self.now


def _make(num_queues: int = 2, limit: int = 64) -> MacFqStructure:
    dropped = []
    fq = MacFqStructure(
        _Clock(), num_queues=num_queues, limit=limit,
        on_drop=lambda pkt, reason: dropped.append((pkt.pid, reason)),
    )
    fq.dropped_log = dropped
    return fq


def _packet(pid: int, flow_id: int, station: int,
            size: int = 1500) -> Packet:
    pkt = Packet(flow_id, size, dst_station=station)
    pkt.pid = pid  # deterministic ids, independent of the global counter
    return pkt


def _drain(fq: MacFqStructure) -> list:
    out = []
    for tid in list(fq.tids()):
        while True:
            pkt = fq.dequeue(tid)
            if pkt is None:
                break
            out.append(pkt)
    return out


# Operations: enqueue (flow chooses its station as flow_id % 2) or a
# dequeue attempt on one of the two stations.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("enq"),
                  st.integers(min_value=1, max_value=6),
                  st.integers(min_value=200, max_value=1500)),
        st.tuples(st.just("deq"), st.integers(min_value=0, max_value=1),
                  st.just(0)),
    ),
    min_size=1, max_size=120,
)


@settings(max_examples=80, deadline=None)
@given(ops=_OPS,
       num_queues=st.integers(min_value=1, max_value=4),
       limit=st.integers(min_value=4, max_value=64))
def test_no_packet_is_lost_or_duplicated(ops, num_queues, limit):
    fq = _make(num_queues=num_queues, limit=limit)
    tids = {s: fq.tid(s, AccessCategory.BE) for s in (0, 1)}
    enqueued: list[int] = []
    delivered: list[int] = []
    pid = 0

    for op in ops:
        if op[0] == "enq":
            _, flow_id, size = op
            pid += 1
            station = flow_id % 2
            fq.enqueue(tids[station], _packet(pid, flow_id, station, size))
            enqueued.append(pid)
        else:
            pkt = fq.dequeue(tids[op[1]])
            if pkt is not None:
                delivered.append(pkt.pid)
        assert fq.backlog_packets == (len(enqueued) - len(delivered)
                                      - len(fq.dropped_log))
        assert fq.backlog_packets <= fq.limit

    delivered.extend(p.pid for p in _drain(fq))
    dropped = [pid for pid, _ in fq.dropped_log]

    assert fq.backlog_packets == 0
    accounted = Counter(delivered) + Counter(dropped)
    assert accounted == Counter(enqueued), (
        "conservation broken: every enqueued packet must be delivered or "
        "dropped exactly once"
    )
    # After a full drain the rotation lists must be empty for every TID.
    for tid in fq.tids():
        assert not tid.new_queues
        assert not tid.old_queues
        assert tid.backlog == 0


@settings(max_examples=50, deadline=None)
@given(flows=st.lists(st.integers(min_value=1, max_value=8),
                      min_size=1, max_size=60))
def test_single_queue_pool_preserves_fifo_order(flows):
    """With one pool queue every flow shares it — order must be FIFO."""
    fq = _make(num_queues=1, limit=1024)
    tid = fq.tid(0, AccessCategory.BE)
    for pid, flow_id in enumerate(flows, start=1):
        fq.enqueue(tid, _packet(pid, flow_id, 0))
    delivered = [p.pid for p in _drain(fq)]
    assert delivered == list(range(1, len(flows) + 1))


@settings(max_examples=50, deadline=None)
@given(seed_flows=st.sets(st.integers(min_value=1, max_value=500),
                          min_size=2, max_size=20))
def test_hash_collisions_fall_back_to_the_overflow_queue(seed_flows):
    """A queue owned by another TID never accepts a colliding flow."""
    fq = _make(num_queues=2, limit=1024)
    tid_a = fq.tid(0, AccessCategory.BE)
    tid_b = fq.tid(1, AccessCategory.BE)
    flows = sorted(seed_flows)
    # Station 0 claims both pool buckets first.
    for pid, flow_id in enumerate(flows, start=1):
        fq.enqueue(tid_a, _packet(pid, flow_id, 0))
    # Station 1's packets must all land in its overflow queue (negative
    # index), because every pool bucket belongs to tid_a.
    claimed = {hash_flow(f, 2) for f in flows}
    if claimed == {0, 1}:
        base = len(flows)
        for off, flow_id in enumerate(flows, start=1):
            fq.enqueue(tid_b, _packet(base + off, flow_id, 1))
        assert len(tid_b.overflow_queue.pkts) == len(flows)
    delivered = {p.pid for p in _drain(fq)}
    assert fq.backlog_packets == 0
    assert len(delivered) + len(fq.dropped_log) == fq_total_enqueued(fq,
                                                                     flows)


def fq_total_enqueued(fq: MacFqStructure, flows) -> int:
    claimed = {hash_flow(f, 2) for f in flows}
    return len(flows) * (2 if claimed == {0, 1} else 1)


def test_new_queue_is_served_before_old_backlog():
    """The sparse-flow optimisation: a fresh flow jumps the DRR line."""
    fq = _make(num_queues=8, limit=1024)
    tid = fq.tid(0, AccessCategory.BE)
    bulk_flow = 1
    for pid in range(1, 6):
        fq.enqueue(tid, _packet(pid, bulk_flow, 0))
    # Exhaust the bulk queue's quantum (two 1500 B packets > 1514 B) so
    # its next scheduling pass rotates it onto the old list.
    assert fq.dequeue(tid).pid == 1
    assert fq.dequeue(tid).pid == 2
    sparse_flow = next(
        f for f in range(2, 50)
        if hash_flow(f, 8) != hash_flow(bulk_flow, 8)
    )
    fq.enqueue(tid, _packet(100, sparse_flow, 0))
    nxt = fq.dequeue(tid)
    assert nxt is not None and nxt.pid == 100


def test_overlimit_drops_come_from_the_longest_queue():
    fq = _make(num_queues=8, limit=4)
    tid = fq.tid(0, AccessCategory.BE)
    long_flow = 1
    short_flow = next(
        f for f in range(2, 50)
        if hash_flow(f, 8) != hash_flow(long_flow, 8)
    )
    for pid in range(1, 5):
        fq.enqueue(tid, _packet(pid, long_flow, 0))
    fq.enqueue(tid, _packet(10, short_flow, 0))
    assert fq.drops_overlimit == 1
    dropped_pid, reason = fq.dropped_log[0]
    assert reason == "overlimit"
    assert dropped_pid in (1, 2, 3, 4)  # head of the long queue, not pid 10
    assert fq.backlog_packets == 4
