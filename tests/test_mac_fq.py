"""Tests for the per-TID queueing structure (Algorithms 1 and 2)."""

from __future__ import annotations

import pytest

from repro.core.codel import PerStationCoDelTuner
from repro.core.fq_codel import hash_flow
from repro.core.mac_fq import MacFqStructure
from repro.core.packet import AccessCategory, Packet


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return Clock()


@pytest.fixture
def fq(clock):
    return MacFqStructure(clock, num_queues=64, limit=16, quantum=1514)


def mkpkt(flow_id, size=1500, seq=0):
    return Packet(flow_id, size, dst_station=0, seq=seq)


class TestEnqueueDequeue:
    def test_fifo_within_one_flow(self, fq):
        tid = fq.tid(0, AccessCategory.BE)
        for i in range(5):
            fq.enqueue(mkpkt(1, seq=i), tid)
        seqs = [fq.dequeue(tid).seq for _ in range(5)]
        assert seqs == list(range(5))

    def test_dequeue_empty_returns_none(self, fq):
        tid = fq.tid(0, AccessCategory.BE)
        assert fq.dequeue(tid) is None

    def test_backlog_accounting(self, fq):
        tid = fq.tid(0, AccessCategory.BE)
        for i in range(3):
            fq.enqueue(mkpkt(1, seq=i), tid)
        assert fq.backlog_packets == 3
        assert tid.backlog == 3
        fq.dequeue(tid)
        assert fq.backlog_packets == 2
        assert tid.backlog == 2

    def test_enqueue_timestamps_packet(self, fq, clock):
        tid = fq.tid(0, AccessCategory.BE)
        clock.now = 123.0
        pkt = mkpkt(1)
        fq.enqueue(pkt, tid)
        assert pkt.enqueue_us == 123.0

    def test_tids_are_cached_per_station_ac(self, fq):
        a = fq.tid(0, AccessCategory.BE)
        b = fq.tid(0, AccessCategory.BE)
        c = fq.tid(0, AccessCategory.VO)
        d = fq.tid(1, AccessCategory.BE)
        assert a is b
        assert a is not c
        assert a is not d


class TestDrrFairness:
    def test_two_flows_share_equally(self, fq):
        """DRR must interleave two backlogged equal-size flows."""
        tid = fq.tid(0, AccessCategory.BE)
        # Find flow ids hashing to distinct queues.
        f1, f2 = 1, 2
        while hash_flow(f1, 64) == hash_flow(f2, 64):
            f2 += 1
        for i in range(4):
            fq.enqueue(mkpkt(f1, seq=i), tid)
            fq.enqueue(mkpkt(f2, seq=i), tid)
        flows = [fq.dequeue(tid).flow_id for _ in range(8)]
        # Counts must balance within any prefix of 2k dequeues.
        assert flows.count(f1) == flows.count(f2) == 4
        first_four = flows[:4]
        assert first_four.count(f1) == 2

    def test_small_packets_get_more_dequeues_per_round(self, fq):
        """Byte-based deficit: a small-packet flow sends several packets
        per quantum while a full-size flow sends one."""
        tid = fq.tid(0, AccessCategory.BE)
        f_small, f_big = 1, 2
        while hash_flow(f_small, 64) == hash_flow(f_big, 64):
            f_big += 1
        for i in range(12):
            fq.enqueue(mkpkt(f_small, size=100, seq=i), tid)
        for i in range(12):
            fq.enqueue(mkpkt(f_big, size=1500, seq=i), tid)
        first_rounds = [fq.dequeue(tid).flow_id for _ in range(12)]
        assert first_rounds.count(f_small) > first_rounds.count(f_big)


class TestSparseFlowOptimisation:
    def test_new_flow_jumps_ahead_of_old_backlog(self, fq):
        tid = fq.tid(0, AccessCategory.BE)
        f_bulk, f_sparse = 1, 2
        while hash_flow(f_bulk, 64) == hash_flow(f_sparse, 64):
            f_sparse += 1
        for i in range(10):
            fq.enqueue(mkpkt(f_bulk, seq=i), tid)
        # Drain a couple so the bulk queue sits on the old list.
        fq.dequeue(tid)
        fq.dequeue(tid)
        fq.enqueue(mkpkt(f_sparse, seq=99), tid)
        nxt = fq.dequeue(tid)
        assert nxt.flow_id == f_sparse

    def test_emptied_new_queue_cycles_through_old_before_deletion(self, fq):
        """Anti-gaming: once a dequeue attempt finds a new queue empty it
        moves to the *old* list, so refilling it does not re-gain the
        new-queue priority."""
        tid = fq.tid(0, AccessCategory.BE)
        f_bulk, f_sparse = 1, 2
        while hash_flow(f_bulk, 64) == hash_flow(f_sparse, 64):
            f_sparse += 1
        for i in range(10):
            fq.enqueue(mkpkt(f_bulk, seq=i), tid)
        fq.dequeue(tid)
        fq.dequeue(tid)  # bulk exhausts its quantum, moves to the old list
        fq.enqueue(mkpkt(f_sparse, seq=0), tid)
        got = fq.dequeue(tid)
        assert got.flow_id == f_sparse
        # The next dequeue finds the sparse queue empty: it is rotated to
        # the old list and the bulk flow is served.
        assert fq.dequeue(tid).flow_id == f_bulk
        sparse_queue = fq._queues[hash_flow(f_sparse, 64)]
        assert sparse_queue.membership == "old"
        # Refill the sparse flow: it stays on the old list (no new-list
        # rejoin, no fresh quantum) — the anti-gaming rule.
        fq.enqueue(mkpkt(f_sparse, seq=1), tid)
        assert sparse_queue.membership == "old"
        assert sparse_queue.deficit <= fq.quantum

    def test_sparse_priority_is_deficit_bounded(self, fq):
        """A 'sparse' flow that keeps its queue non-empty retains new-list
        priority only until its quantum is spent (fq_codel semantics)."""
        tid = fq.tid(0, AccessCategory.BE)
        f_bulk, f_sparse = 1, 2
        while hash_flow(f_bulk, 64) == hash_flow(f_sparse, 64):
            f_sparse += 1
        for i in range(10):
            fq.enqueue(mkpkt(f_bulk, seq=i), tid)
        fq.dequeue(tid)
        fq.dequeue(tid)  # bulk exhausts its quantum, moves to the old list
        # Keep the sparse queue topped up: it may take its quantum's worth
        # (one 1500B packet) ahead of bulk, but not a second full packet.
        fq.enqueue(mkpkt(f_sparse, seq=0), tid)
        fq.enqueue(mkpkt(f_sparse, seq=1), tid)
        fq.enqueue(mkpkt(f_sparse, seq=2), tid)
        served = [fq.dequeue(tid).flow_id for _ in range(3)]
        assert served[0] == f_sparse
        assert f_bulk in served


class TestHashCollisions:
    def test_cross_tid_collision_goes_to_overflow_queue(self, clock):
        fq = MacFqStructure(clock, num_queues=1, limit=100)
        tid_a = fq.tid(0, AccessCategory.BE)
        tid_b = fq.tid(1, AccessCategory.BE)
        fq.enqueue(mkpkt(1), tid_a)  # claims the only queue for tid_a
        fq.enqueue(mkpkt(2), tid_b)  # must go to tid_b's overflow queue
        assert tid_b.backlog == 1
        pkt = fq.dequeue(tid_b)
        assert pkt is not None and pkt.flow_id == 2

    def test_same_tid_collision_shares_the_queue(self, clock):
        fq = MacFqStructure(clock, num_queues=1, limit=100)
        tid = fq.tid(0, AccessCategory.BE)
        fq.enqueue(mkpkt(1, seq=0), tid)
        fq.enqueue(mkpkt(2, seq=1), tid)
        assert tid.backlog == 2
        assert fq.dequeue(tid).seq == 0
        assert fq.dequeue(tid).seq == 1

    def test_queue_released_when_drained(self, clock):
        fq = MacFqStructure(clock, num_queues=1, limit=100)
        tid_a = fq.tid(0, AccessCategory.BE)
        tid_b = fq.tid(1, AccessCategory.BE)
        fq.enqueue(mkpkt(1), tid_a)
        assert fq.dequeue(tid_a) is not None
        assert fq.dequeue(tid_a) is None  # queue empties and is released
        # tid_b can now claim the hashed queue directly.
        fq.enqueue(mkpkt(2), tid_b)
        assert tid_b.overflow_queue.tid is None or tid_b.backlog == 1
        assert fq.dequeue(tid_b).flow_id == 2


class TestGlobalLimit:
    def test_overflow_drops_from_longest_queue(self, clock):
        fq = MacFqStructure(clock, num_queues=64, limit=10)
        tid = fq.tid(0, AccessCategory.BE)
        f_big, f_small = 1, 2
        while hash_flow(f_big, 64) == hash_flow(f_small, 64):
            f_small += 1
        for i in range(9):
            fq.enqueue(mkpkt(f_big, seq=i), tid)
        fq.enqueue(mkpkt(f_small, seq=0), tid)
        # Next enqueue breaches the limit: the head of the *long* queue
        # is dropped, not the arriving packet.
        dropped = []
        fq.on_drop = lambda pkt, reason: dropped.append((pkt.flow_id, reason))
        fq.enqueue(mkpkt(f_small, seq=1), tid)
        assert dropped == [(f_big, "overlimit")]
        assert fq.backlog_packets == 10

    def test_slow_flow_cannot_lock_out_new_flows(self, clock):
        """The core claim of Section 3.1: on overload the longest queue
        pays, so a second flow can always get packets in."""
        fq = MacFqStructure(clock, num_queues=64, limit=8)
        tid = fq.tid(0, AccessCategory.BE)
        for i in range(20):
            fq.enqueue(mkpkt(1, seq=i), tid)
        fq.enqueue(mkpkt(2, seq=0), tid)
        flows = set()
        while True:
            pkt = fq.dequeue(tid)
            if pkt is None:
                break
            flows.add(pkt.flow_id)
        assert 2 in flows

    def test_drop_counters_by_reason(self, clock):
        fq = MacFqStructure(clock, num_queues=64, limit=4)
        tid = fq.tid(0, AccessCategory.BE)
        for i in range(6):
            fq.enqueue(mkpkt(1, seq=i), tid)
        assert fq.drops_overlimit == 2
        assert fq.total_drops == 2
        assert fq.backlog_packets == 4


class TestCoDelIntegration:
    def test_codel_drops_stale_packets_on_dequeue(self, clock):
        tuner = PerStationCoDelTuner(enabled=False)
        fq = MacFqStructure(clock, num_queues=64, limit=1000, codel_tuner=tuner)
        tid = fq.tid(0, AccessCategory.BE)
        for i in range(100):
            fq.enqueue(mkpkt(1, seq=i), tid)
        clock.now = 10_000.0
        fq.dequeue(tid)  # starts the above-target clock
        clock.now = 120_000.0
        drained = 0
        while fq.dequeue(tid) is not None:
            drained += 1
        assert fq.drops_codel > 0
        assert drained + fq.drops_codel == 99

    def test_per_station_codel_params_used(self, clock):
        """A slow station's relaxed target (50ms) must not drop packets
        that the default target (5ms) would."""
        tuner = PerStationCoDelTuner()
        tuner.update_rate(7, 1e6, now_us=0.0)  # station 7 is slow
        fq = MacFqStructure(clock, num_queues=64, limit=1000, codel_tuner=tuner)
        slow_tid = fq.tid(7, AccessCategory.BE)
        for i in range(50):
            fq.enqueue(mkpkt(1, seq=i), slow_tid)
        # Sojourn 20ms: above the 5ms default, below the 50ms slow target.
        clock.now = 20_000.0
        fq.dequeue(slow_tid)
        clock.now = 140_000.0
        for pkt in iter(lambda: fq.dequeue(slow_tid), None):
            pass
        # With 50ms target, sojourn 140ms > 50ms: drops CAN happen, but
        # the interval is 300ms so the dropping state must not engage yet.
        assert fq.drops_codel == 0


class TestConservation:
    def test_packets_in_equal_packets_out_plus_drops(self, clock):
        fq = MacFqStructure(clock, num_queues=16, limit=32)
        tids = [fq.tid(i, AccessCategory.BE) for i in range(4)]
        total_in = 0
        for i in range(200):
            fq.enqueue(mkpkt(i % 7 + 1, seq=i), tids[i % 4])
            total_in += 1
        total_out = 0
        for tid in tids:
            while fq.dequeue(tid) is not None:
                total_out += 1
        assert total_out + fq.total_drops == total_in
        assert fq.backlog_packets == 0


class TestTraceDetach:
    @staticmethod
    def _codel_cycle(fq, clock, tids):
        """Enqueue standing backlog on each TID, then dequeue across more
        than one CoDel interval: every queue enters and leaves dropping."""
        start = clock.now
        for tid in tids:
            for i in range(6):
                fq.enqueue(mkpkt(1, seq=i), tid)
        for tid in tids:
            clock.now = start + 10_000.0
            fq.dequeue(tid)
            clock.now = start + 120_000.0
            while fq.dequeue(tid) is not None:
                pass
        clock.now = start + 200_000.0

    def test_set_trace_none_fully_detaches(self, clock):
        from repro.telemetry import MetricsRegistry, TraceBus

        # One pool queue: the second TID collides into its overflow queue.
        fq = MacFqStructure(clock, num_queues=1, limit=64)
        tids = [fq.tid(0, AccessCategory.BE), fq.tid(1, AccessCategory.BE)]
        bus, metrics = TraceBus(), MetricsRegistry()
        fq.set_trace(bus, metrics=metrics)
        self._codel_cycle(fq, clock, tids)

        states = [r for r in bus.records if r["cat"] == "codel"]
        assert {r["kind"] for r in states} == {"enter_drop", "exit_drop"}
        assert {r["q"] for r in states} == {0, -2}  # pool + overflow queue
        assert {r["station"] for r in states} == {0, 1}
        seen = len(bus)
        observed = metrics.histogram("mac_sojourn_us").count
        drops = fq.drops_codel
        assert drops > 0 and observed > 0

        fq.set_trace(None)
        self._codel_cycle(fq, clock, tids)
        tids.append(fq.tid(2, AccessCategory.BE))  # TID born detached
        self._codel_cycle(fq, clock, tids)

        assert fq.drops_codel > drops  # transitions did happen again
        assert len(bus) == seen
        assert metrics.histogram("mac_sojourn_us").count == observed
