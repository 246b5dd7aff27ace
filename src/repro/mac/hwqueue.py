"""Hardware transmit queue: the driver-level FIFO of built aggregates.

The ath9k hardware accepts two queued aggregates per hardware queue
(Figures 2 and 3, "2 aggr").  Keeping this queue *short* is what makes the
software scheduler's decisions matter: the airtime scheduler of Algorithm 3
loops "while hardware queue is not full", and with a depth of two the AP
commits to at most one head-of-line aggregate per AC while another is on
the air.

The retry chain also lives here: a failed aggregate re-enters at the head
(``retry_q`` in the figures) until it exceeds the retry limit.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.core.packet import AccessCategory
from repro.mac.aggregation import Aggregate

__all__ = ["HardwareQueue", "HW_QUEUE_DEPTH", "MAX_RETRIES"]

#: Aggregates the hardware accepts per AC queue.
HW_QUEUE_DEPTH = 2
#: Retry limit before a failed aggregate is dropped.
MAX_RETRIES = 10


class HardwareQueue:
    """Per-AC FIFOs of built aggregates with strict VO-first service."""

    def __init__(self, depth: int = HW_QUEUE_DEPTH) -> None:
        if depth <= 0:
            raise ValueError("depth must be positive")
        self.depth = depth
        self._queues: dict[AccessCategory, Deque[Aggregate]] = {
            ac: deque() for ac in AccessCategory
        }
        # Hot-path views of the same deques: the schedulers poll
        # ``full``/``pop``/``head_ac`` once or more per packet, so the
        # priority walk binds the deques directly instead of doing a dict
        # lookup per AC on every call.
        self._prio: tuple = (
            (AccessCategory.VO, self._queues[AccessCategory.VO]),
            (AccessCategory.VI, self._queues[AccessCategory.VI]),
            (AccessCategory.BE, self._queues[AccessCategory.BE]),
            (AccessCategory.BK, self._queues[AccessCategory.BK]),
        )
        self._vo_q = self._queues[AccessCategory.VO]
        self._vi_q = self._queues[AccessCategory.VI]
        self._be_q = self._queues[AccessCategory.BE]
        self._bk_q = self._queues[AccessCategory.BK]
        #: Aggregates dropped after exceeding the retry limit.
        self.retry_drops = 0

        # Telemetry (None when disabled).
        self._now = None
        self._em_push = None
        self._em_pop = None

    # ------------------------------------------------------------------
    def set_trace(self, trace, now_fn=None) -> None:
        """Attach a trace bus; ``now_fn`` supplies emit timestamps."""
        channel = trace.channel("hw") if trace is not None else None
        self._now = now_fn
        if channel is not None:
            self._em_push = channel.emitter("push", (
                ("ac", "s"), ("station", "q"), ("agg", "q"),
                ("n_pkts", "q"), ("depth", "q"),
            ))
            self._em_pop = channel.emitter("pop", (
                ("ac", "s"), ("station", "q"), ("agg", "q"), ("depth", "q"),
            ))
        else:
            self._em_push = None
            self._em_pop = None

    def occupancy(self) -> int:
        """Aggregates currently queued across all ACs (sampler probe)."""
        return sum(len(q) for q in self._queues.values())

    def queued_packets(self) -> int:
        """Packets inside queued aggregates (conservation accounting)."""
        return sum(
            agg.n_packets for q in self._queues.values() for agg in q
        )

    def flush_station(self, station: int) -> list:
        """Remove (and return) queued aggregates destined to ``station``.

        Station churn: a detaching station's built-but-untransmitted
        aggregates are pulled back out so their packets can be accounted
        as drops instead of silently evaporating.
        """
        removed = []
        for queue in self._queues.values():
            kept = [agg for agg in queue if agg.station != station]
            if len(kept) != len(queue):
                removed.extend(agg for agg in queue if agg.station == station)
                queue.clear()
                queue.extend(kept)
        return removed

    # ------------------------------------------------------------------
    def full(self, ac: AccessCategory) -> bool:
        return len(self._queues[ac]) >= self.depth

    def be_full(self) -> bool:
        """``full(BE)`` without the dict lookup — the station schedulers
        poll this before every aggregate they build."""
        return len(self._be_q) >= self.depth

    def vo_full(self) -> bool:
        """``full(VO)`` without the dict lookup (the VO fill loop)."""
        return len(self._vo_q) >= self.depth

    def push(self, agg: Aggregate) -> None:
        if self.full(agg.ac):
            raise RuntimeError(f"hardware queue {agg.ac.name} is full")
        self._queues[agg.ac].append(agg)
        if self._em_push is not None:
            self._em_push(self._now() if self._now is not None else 0.0,
                          agg.ac.name, agg.station, agg.seq,
                          len(agg.packets), len(self._queues[agg.ac]))

    def requeue_retry(self, agg: Aggregate) -> bool:
        """Re-insert a failed aggregate at the head (the retry queue).

        Returns False (and counts a drop) once the retry limit is hit.
        The retry path may exceed the nominal depth by one — the frame is
        already "in the hardware".
        """
        agg.retries += 1
        if agg.retries > MAX_RETRIES:
            self.retry_drops += 1
            return False
        self._queues[agg.ac].appendleft(agg)
        return True

    def pop(self) -> Optional[Aggregate]:
        """Next aggregate to transmit: highest-priority non-empty AC."""
        for ac, queue in self._prio:
            if queue:
                agg = queue.popleft()
                if self._em_pop is not None:
                    self._em_pop(self._now() if self._now is not None else 0.0,
                                 ac.name, agg.station, agg.seq, len(queue))
                return agg
        return None

    def head_ac(self) -> Optional[AccessCategory]:
        """AC of the aggregate :meth:`pop` would return, or ``None``."""
        for ac, queue in self._prio:
            if queue:
                return ac
        return None

    def has_pending(self) -> bool:
        return bool(self._vo_q or self._vi_q or self._be_q or self._bk_q)
