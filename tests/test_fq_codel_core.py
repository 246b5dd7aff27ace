"""Tests for the FQ-CoDel building blocks (FlowQueue, TidState, hashing)."""

from __future__ import annotations

import pytest

from repro.core.fq_codel import FlowQueue, TidState, hash_flow
from repro.core.packet import AccessCategory, Packet


def mkpkt(flow_id=1, size=1500, seq=0):
    return Packet(flow_id, size, seq=seq)


class TestHashFlow:
    def test_deterministic(self):
        assert hash_flow(42, 1024) == hash_flow(42, 1024)

    def test_in_range(self):
        for flow in range(1, 500):
            assert 0 <= hash_flow(flow, 64) < 64

    def test_spreads_flows(self):
        buckets = {hash_flow(f, 1024) for f in range(1, 200)}
        # 200 flows over 1024 buckets: expect >150 distinct buckets.
        assert len(buckets) > 150


class TestFlowQueue:
    def test_append_and_pop_fifo(self):
        q = FlowQueue(0)
        a, b = mkpkt(seq=0), mkpkt(seq=1)
        q.append(a)
        q.append(b)
        assert q.pop_head() is a
        assert q.pop_head() is b
        assert q.pop_head() is None

    def test_byte_backlog_tracks_sizes(self):
        q = FlowQueue(0)
        q.append(mkpkt(size=100))
        q.append(mkpkt(size=200))
        assert q.byte_backlog == 300
        q.pop_head()
        assert q.byte_backlog == 200

    def test_reset_clears_scheduling_state(self):
        q = FlowQueue(0)
        q.tid = object()
        q.membership = "new"
        q.deficit = -55
        q.codel.count = 9
        q.reset()
        assert q.tid is None
        assert q.membership is None
        assert q.deficit == 0
        assert q.codel.count == 0


class TestTidState:
    def make_tid(self):
        return TidState(0, AccessCategory.BE, FlowQueue(-1))

    def test_schedulable_prefers_new_over_old(self):
        tid = self.make_tid()
        old_q, new_q = FlowQueue(1), FlowQueue(2)
        tid.move_to_old(old_q)
        tid.add_new(new_q)
        assert tid.schedulable_queue() is new_q

    def test_schedulable_none_when_empty(self):
        assert self.make_tid().schedulable_queue() is None

    def test_move_to_old_from_new(self):
        tid = self.make_tid()
        q = FlowQueue(1)
        tid.add_new(q)
        tid.move_to_old(q)
        assert q.membership == "old"
        assert list(tid.new_queues) == []
        assert list(tid.old_queues) == [q]

    def test_delete_queue_resets_it(self):
        tid = self.make_tid()
        q = FlowQueue(1)
        q.tid = tid
        tid.add_new(q)
        tid.delete_queue(q)
        assert q.membership is None
        assert q.tid is None
        assert tid.schedulable_queue() is None
