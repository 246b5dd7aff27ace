"""Aggregate builder caps at the edges: the TXOP limit at a slow rate,
holdback when a packet overflows the byte cap, and arrival order kept
across a run of small aggregates.  Every aggregate carries one packet per
subframe."""

from __future__ import annotations

from collections import deque

from repro.core.packet import AccessCategory, Packet
from repro.mac.aggregation import AggregateBuilder, AggregationLimits
from repro.phy.rates import RATE_FAST, RATE_SLOW
from repro.phy.timing import mpdu_length


def queue_of(n, size=172, flow=1):
    pkts = deque(Packet(flow, size, dst_station=0, seq=i) for i in range(n))
    return pkts, lambda: pkts.popleft() if pkts else None


class TestTwoLevelBuilding:
    def test_txop_cap_respected(self):
        builder = AggregateBuilder()
        _, dequeue = queue_of(30, size=1500)
        agg = builder.build(0, AccessCategory.BE, RATE_SLOW, dequeue)
        assert agg.n_packets > 1
        assert agg.data_time_us <= AggregationLimits().max_txop_us
        # The packet that would have crossed the cap waits for the next
        # aggregate instead of going back to the queue.
        assert builder.holdback_backlog(0, AccessCategory.BE) == 1

    def test_holdback_on_overflow(self):
        # Room for two 172 B subframes but not a third.
        cap = 2 * mpdu_length(172) + mpdu_length(172) // 2
        builder = AggregateBuilder(AggregationLimits(max_bytes=cap))
        pkts, dequeue = queue_of(5, size=172)
        agg = builder.build(0, AccessCategory.BE, RATE_FAST, dequeue)
        assert agg.n_packets == 2
        assert agg.mpdu_bytes <= cap
        assert builder.holdback_backlog(0, AccessCategory.BE) == 1
        assert len(pkts) == 2

    def test_order_preserved_across_aggregates(self):
        cap = 2 * mpdu_length(172) + mpdu_length(172) // 2
        builder = AggregateBuilder(AggregationLimits(max_subframes=3,
                                                     max_bytes=cap))
        _, dequeue = queue_of(20, size=172)
        seqs = []
        while True:
            agg = builder.build(0, AccessCategory.BE, RATE_FAST, dequeue)
            if agg is None:
                break
            assert agg.n_packets <= 2
            seqs.extend(p.seq for p in agg.packets)
        assert seqs == list(range(20))
        assert builder.holdback_total() == 0
