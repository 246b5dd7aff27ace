"""A-MPDU aggregation: building aggregates and computing their airtime.

Aggregate size is *emergent* in this simulator — the builder takes packets
from whatever queue feeds it until it runs out of backlog or hits a limit
(64 subframes, 32,767 bytes, 4 ms TXOP).  The paper's key observations about
aggregation (the FIFO configuration starving fast stations down to ~4.5
packet aggregates while FQ-MAC reaches ~18; Table 1 and Section 4.1.2)
come out of this emergence, not out of a configured aggregation level.

Legacy (non-HT) rates and VO-marked traffic do not aggregate: one MPDU per
PHY frame, acknowledged with a legacy ACK.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.packet import AccessCategory, Packet, agg_seq_allocator
from repro.phy.constants import (
    MAX_AMPDU_BYTES,
    MAX_AMPDU_SUBFRAMES,
    MAX_TXOP_US,
)
from repro.phy.rates import PhyRate
from repro.phy.timing import (
    T_PHY_US,
    block_ack_time_us,
    legacy_ack_time_us,
    mpdu_length,
)

__all__ = ["Aggregate", "AggregateBuilder", "AggregationLimits"]


class _computed:
    """A value computed on first read, then stored on the instance.

    The standard library's cached property minus the lock it takes on
    every first read (through Python 3.11).  :meth:`AggregateBuilder.build`
    stores the values its loop already has, so only aggregates built
    elsewhere (an unaggregated VO or legacy-rate frame) compute them here.
    """

    def __init__(self, func: Callable) -> None:
        self._func = func
        self._name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self._name] = self._func(obj)
        return value


@dataclass(frozen=True)
class AggregationLimits:
    """Caps applied to one A-MPDU; each subframe carries one packet."""

    max_subframes: int = MAX_AMPDU_SUBFRAMES
    max_bytes: int = MAX_AMPDU_BYTES
    max_txop_us: float = MAX_TXOP_US


@dataclass
class Aggregate:
    """One physical transmission: an A-MPDU (or single MPDU) plus timing.

    ``duration_us`` is the channel occupancy from the start of the PHY
    header to the end of the (block) ack — i.e. everything except the
    DIFS+backoff contention overhead, which the medium accounts
    separately.  This is also the airtime the paper's scheduler charges.
    """

    station: int
    ac: AccessCategory
    rate: PhyRate
    packets: List[Packet] = field(default_factory=list)
    retries: int = 0
    #: Process-unique id joining hw/tx trace records to this aggregate.
    seq: int = field(default_factory=agg_seq_allocator)

    @property
    def n_packets(self) -> int:
        return len(self.packets)

    # The byte/time values below are computed once: an aggregate is only
    # mutated while ``AggregateBuilder.build`` assembles it, and the
    # first timing query happens after build — from then on the values
    # are fixed, while the medium and the airtime scheduler each re-read
    # ``duration_us`` per transmission.
    @_computed
    def payload_bytes(self) -> int:
        return sum(p.size for p in self.packets)

    @_computed
    def mpdu_bytes(self) -> int:
        return sum(mpdu_length(p.size) for p in self.packets)

    @property
    def aggregated(self) -> bool:
        return self.rate.ht and self.ac.aggregates

    @_computed
    def data_time_us(self) -> float:
        """PHY header + MPDU payload time (eq. 2 for uniform packets)."""
        return T_PHY_US + 8 * self.mpdu_bytes / self.rate.bps * 1e6

    @_computed
    def duration_us(self) -> float:
        """Data time plus SIFS + (block) ack."""
        if self.aggregated:
            ack = block_ack_time_us(self.rate)
        else:
            ack = legacy_ack_time_us()
        return self.data_time_us + ack


class AggregateBuilder:
    """Builds aggregates from a packet-at-a-time dequeue function.

    The FQ structures dequeue one packet at a time (and CoDel may drop
    while doing so), so the builder cannot peek.  When a dequeued packet
    would push the aggregate past a limit it is *held back* and becomes
    the first packet of the station's next aggregate — the same behaviour
    as ath9k re-queueing an skb at the head of the TID queue.
    """

    def __init__(self, limits: Optional[AggregationLimits] = None) -> None:
        self.limits = limits or AggregationLimits()
        self._holdback: dict[tuple[int, AccessCategory], Packet] = {}

    def holdback_backlog(self, station: int, ac: AccessCategory) -> int:
        """Packets currently held back for (station, ac): 0 or 1."""
        return 1 if (station, ac) in self._holdback else 0

    def holdback_total(self) -> int:
        """Packets held back across all (station, ac) slots."""
        return len(self._holdback)

    def flush_station(self, station: int) -> List[Packet]:
        """Remove (and return) held-back packets for ``station`` (churn)."""
        keys = [key for key in self._holdback if key[0] == station]
        return [self._holdback.pop(key) for key in keys]

    def build(
        self,
        station: int,
        ac: AccessCategory,
        rate: PhyRate,
        dequeue: Callable[[], Optional[Packet]],
    ) -> Optional[Aggregate]:
        """Build one aggregate for ``station``/``ac`` at ``rate``.

        Returns ``None`` when neither the holdback slot nor ``dequeue``
        yields any packet.
        """
        key = (station, ac)
        # Within one build the holdback slot can only yield the *first*
        # packet (it is refilled, if at all, on the way out), so it is
        # popped once here instead of once per packet inside the loop.
        held = self._holdback.pop(key, None)
        agg = Aggregate(station=station, ac=ac, rate=rate)

        if not (rate.ht and ac.aggregates):
            pkt = held if held is not None else dequeue()
            if pkt is None:
                return None
            agg.packets.append(pkt)
            return agg

        limits = self.limits
        packets = agg.packets
        holdback = self._holdback
        mpdu_len = mpdu_length
        rate_bps = rate.bps
        max_subframes = limits.max_subframes
        max_bytes = limits.max_bytes
        max_txop_us = limits.max_txop_us
        mpdu_total = 0
        payload = 0
        data_time_us = 0.0
        n_packets = 0
        pkt = held
        while n_packets < max_subframes:
            if pkt is None:
                pkt = dequeue()
                if pkt is None:
                    break
            size = pkt.size
            new_total = mpdu_total + mpdu_len(size)
            data_us = T_PHY_US + 8 * new_total / rate_bps * 1e6
            over = new_total > max_bytes or data_us > max_txop_us
            if over and n_packets > 0:
                holdback[key] = pkt
                break
            packets.append(pkt)
            n_packets += 1
            payload += size
            mpdu_total = new_total
            data_time_us = data_us
            pkt = None
            if over:
                # A single packet already exceeds the caps (possible only
                # at very low rates); send it alone rather than stalling.
                break

        if not packets:
            return None
        # The loop's own totals, by the expressions the lazy properties
        # would evaluate: the same floats, computed once.
        agg.payload_bytes = payload
        agg.mpdu_bytes = mpdu_total
        agg.data_time_us = data_time_us
        agg.duration_us = data_time_us + block_ack_time_us(rate)
        return agg
