"""Tests for the qdisc layer (pfifo and qdisc-level FQ-CoDel)."""

from __future__ import annotations

import random

import pytest

from repro.core.packet import Packet
from repro.qdisc.fq_codel_qdisc import FqCodelQdisc
from repro.qdisc.pfifo import PfifoQdisc


def mkpkt(flow_id=1, size=1500, seq=0):
    return Packet(flow_id, size, dst_station=0, seq=seq)


class TestPfifo:
    def test_fifo_order(self):
        q = PfifoQdisc(limit=10)
        for i in range(3):
            assert q.enqueue(mkpkt(seq=i))
        assert [q.dequeue().seq for _ in range(3)] == [0, 1, 2]

    def test_tail_drop_at_limit(self):
        q = PfifoQdisc(limit=2)
        assert q.enqueue(mkpkt(seq=0))
        assert q.enqueue(mkpkt(seq=1))
        assert not q.enqueue(mkpkt(seq=2))
        assert q.drops == 1
        # The tail packet was dropped; head order is intact.
        assert q.dequeue().seq == 0

    def test_drop_callback_invoked(self):
        dropped = []
        q = PfifoQdisc(limit=1, on_drop=lambda p, r: dropped.append((p.seq, r)))
        q.enqueue(mkpkt(seq=0))
        q.enqueue(mkpkt(seq=1))
        assert dropped == [(1, "overlimit")]

    def test_empty_dequeue(self):
        assert PfifoQdisc().dequeue() is None

    def test_backlog_counter(self):
        q = PfifoQdisc()
        q.enqueue(mkpkt())
        q.enqueue(mkpkt())
        assert q.backlog_packets == 2
        assert q.has_backlog()
        q.dequeue()
        assert q.backlog_packets == 1

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            PfifoQdisc(limit=0)

    def test_default_limit_is_txqueuelen_1000(self):
        assert PfifoQdisc().limit == 1000


class TestFqCodelQdisc:
    def make(self, **kwargs):
        self.now = 0.0
        return FqCodelQdisc(lambda: self.now, **kwargs)

    def test_round_trip(self):
        q = self.make()
        pkt = mkpkt()
        assert q.enqueue(pkt)
        assert q.dequeue() is pkt
        assert q.dequeue() is None

    def test_flow_isolation(self):
        """Packets of a second flow do not wait behind the first flow's
        entire backlog (the FQ property)."""
        q = self.make()
        for i in range(10):
            q.enqueue(mkpkt(flow_id=1, seq=i))
        q.dequeue()
        q.dequeue()
        q.enqueue(mkpkt(flow_id=2, seq=100))
        seqs = [q.dequeue().seq for _ in range(3)]
        assert 100 in seqs

    def test_backlog_tracks_structure(self):
        q = self.make()
        for i in range(5):
            q.enqueue(mkpkt(seq=i))
        assert q.backlog_packets == 5
        q.dequeue()
        assert q.backlog_packets == 4

    def test_overlimit_drops_from_fattest_flow(self):
        q = self.make(limit=4)
        dropped = []
        q.on_drop = lambda p, r: dropped.append(p.flow_id)
        for i in range(4):
            q.enqueue(mkpkt(flow_id=1, seq=i))
        q.enqueue(mkpkt(flow_id=2, seq=0))
        assert dropped == [1]
        assert q.overlimit_drops == 1

    def test_enqueue_refuses_exactly_when_the_limit_drops(self):
        """``enqueue`` returns False iff it made an overlimit drop — also
        when the drop takes another flow's head and the new packet stays
        queued — and CoDel drops (made at dequeue) never count against a
        later enqueue."""
        q = self.make(limit=4)
        dropped = []
        q.on_drop = lambda p, r: dropped.append((p.flow_id, r))
        assert all(q.enqueue(mkpkt(flow_id=1, seq=i)) for i in range(4))
        newcomer = mkpkt(flow_id=2, seq=0)
        assert q.enqueue(newcomer) is False
        assert dropped == [(1, "overlimit")] and q.backlog_packets == 4
        drained = [q.dequeue() for _ in range(4)]
        assert newcomer in drained and q.dequeue() is None

        rng = random.Random(7)
        q = self.make(limit=8)
        for step in range(2_000):
            self.now += rng.choice((0.0, 1_000.0, 40_000.0))
            if rng.random() < 0.4:
                q.dequeue()
                continue
            before = q.overlimit_drops
            accepted = q.enqueue(mkpkt(flow_id=rng.randrange(4), seq=step))
            assert accepted == (q.overlimit_drops == before)
        assert q.overlimit_drops > 0 and q.codel_drops > 0

    def test_codel_drop_counter_exposed(self):
        q = self.make()
        for i in range(100):
            q.enqueue(mkpkt(seq=i))
        self.now = 10_000.0
        q.dequeue()
        self.now = 150_000.0
        while q.dequeue() is not None:
            pass
        assert q.codel_drops > 0

    def test_linux_defaults(self):
        q = self.make()
        assert q._fq.limit == 10_240
