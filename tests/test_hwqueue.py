"""Tests for the hardware queue and retry chain."""

from __future__ import annotations

import pytest

from repro.core.packet import AccessCategory, Packet
from repro.mac.aggregation import Aggregate
from repro.mac.hwqueue import HW_QUEUE_DEPTH, MAX_RETRIES, HardwareQueue
from repro.phy.rates import RATE_FAST


def agg(station=0, ac=AccessCategory.BE, n=1):
    return Aggregate(station, ac, RATE_FAST,
                     packets=[Packet(1, 1500) for _ in range(n)])


class TestCapacity:
    def test_default_depth_is_two_aggregates(self):
        hw = HardwareQueue()
        assert hw.depth == HW_QUEUE_DEPTH == 2

    def test_full_per_access_category(self):
        hw = HardwareQueue()
        hw.push(agg())
        hw.push(agg())
        assert hw.full(AccessCategory.BE)
        assert not hw.full(AccessCategory.VO)

    def test_push_beyond_depth_raises(self):
        hw = HardwareQueue(depth=1)
        hw.push(agg())
        with pytest.raises(RuntimeError):
            hw.push(agg())

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            HardwareQueue(depth=0)


class TestServiceOrder:
    def test_fifo_within_category(self):
        hw = HardwareQueue()
        a, b = agg(station=1), agg(station=2)
        hw.push(a)
        hw.push(b)
        assert hw.pop() is a
        assert hw.pop() is b
        assert hw.pop() is None

    def test_vo_served_before_be(self):
        hw = HardwareQueue()
        be = agg(ac=AccessCategory.BE)
        vo = agg(ac=AccessCategory.VO)
        hw.push(be)
        hw.push(vo)
        assert hw.pop() is vo
        assert hw.head_ac() is AccessCategory.BE

    def test_head_ac_none_when_empty(self):
        assert HardwareQueue().head_ac() is None

    def test_has_pending(self):
        hw = HardwareQueue()
        assert not hw.has_pending()
        hw.push(agg())
        assert hw.has_pending()


class TestRetryChain:
    def test_retry_reenters_at_head(self):
        hw = HardwareQueue()
        first, second = agg(station=1), agg(station=2)
        hw.push(first)
        hw.push(second)
        popped = hw.pop()
        assert hw.requeue_retry(popped)
        assert hw.pop() is popped  # retried frame goes before 'second'

    def test_retry_increments_counter(self):
        hw = HardwareQueue()
        a = agg()
        hw.push(a)
        hw.pop()
        hw.requeue_retry(a)
        assert a.retries == 1

    def test_drop_after_max_retries(self):
        hw = HardwareQueue()
        a = agg()
        a.retries = MAX_RETRIES
        assert not hw.requeue_retry(a)
        assert hw.retry_drops == 1
        assert not hw.has_pending()


class TestReadinessHook:
    """``on_ready`` fires exactly on the empty -> non-empty transitions
    (the medium's ready set relies on it, DESIGN.md §11 invariant 7)."""

    def test_push_onto_an_empty_queue_fires(self):
        hw = HardwareQueue()
        calls = []
        hw.on_ready = lambda: calls.append(hw.has_pending())
        hw.push(agg(ac=AccessCategory.BE))
        hw.push(agg(ac=AccessCategory.VO))  # another AC, still not idle
        hw.push(agg(ac=AccessCategory.BE))
        assert calls == [True]
        while hw.pop() is not None:
            pass
        hw.push(agg(ac=AccessCategory.VO))
        assert calls == [True, True]

    def test_retry_onto_an_empty_queue_fires(self):
        hw = HardwareQueue()
        calls = []
        a, b = agg(station=1), agg(station=2)
        hw.push(a)
        hw.on_ready = lambda: calls.append(hw.head_ac())
        hw.push(b)  # not idle: no call
        assert hw.pop() is a and hw.pop() is b
        assert hw.requeue_retry(b)  # idle -> backlogged
        assert hw.requeue_retry(a)  # already backlogged
        assert calls == [AccessCategory.BE]

    def test_a_retry_drop_does_not_fire(self):
        hw = HardwareQueue()
        calls = []
        hw.on_ready = lambda: calls.append(1)
        a = agg()
        a.retries = MAX_RETRIES
        assert not hw.requeue_retry(a)
        assert calls == []
