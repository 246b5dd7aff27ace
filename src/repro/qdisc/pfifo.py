"""PFIFO — the Linux default qdisc (tail-drop FIFO, 1000 packets).

This is the "FIFO" configuration's qdisc: the unmodified kernel installs
``pfifo_fast`` with a 1000-packet txqueuelen on the wireless interface.
Priority bands are irrelevant to the paper's single-class bulk traffic, so
a single tail-drop FIFO models it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.core.packet import Packet
from repro.qdisc.base import DropCallback, Qdisc

__all__ = ["PfifoQdisc", "DEFAULT_TXQUEUELEN"]

#: Default Linux interface transmit queue length.
DEFAULT_TXQUEUELEN = 1000


class PfifoQdisc(Qdisc):
    """Tail-drop FIFO with a packet-count limit.

    With a ``trace`` bus, enqueue and dequeue records are stamped by
    ``clock`` (the simulated time in µs).
    """

    def __init__(
        self,
        limit: int = DEFAULT_TXQUEUELEN,
        on_drop: Optional[DropCallback] = None,
        trace=None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        super().__init__(on_drop)
        if limit <= 0:
            raise ValueError("limit must be positive")
        self.limit = limit
        self._pkts: Deque[Packet] = deque()
        self._now = clock
        # Prebound trace emitters, None when untraced: monomorphic record
        # shapes, registered once, so the enqueue and dequeue paths pay
        # positional appends instead of kwargs.
        self._em_enqueue = self._em_dequeue = None
        channel = trace.channel("queue") if trace is not None else None
        if channel is not None:
            self._em_enqueue = channel.emitter("enqueue", (
                ("layer", "c", "qdisc"), ("station", "o"), ("flow", "q"),
                ("pid", "q"), ("backlog", "q"),
            ))
            self._em_dequeue = channel.emitter("dequeue", (
                ("layer", "c", "qdisc"), ("station", "o"), ("pid", "q"),
                ("sojourn_us", "d"),
            ))

    def enqueue(self, pkt: Packet) -> bool:
        if self.backlog_packets >= self.limit:
            # Inlined ``self._drop(pkt, "overlimit")``: a saturating flow
            # tail-drops most offered packets, so the drop path is hot.
            self.drops += 1
            on_drop = self.on_drop
            if on_drop is not None:
                on_drop(pkt, "overlimit")
            return False
        self._pkts.append(pkt)
        self.backlog_packets += 1
        if self._em_enqueue is not None:
            self._em_enqueue(self._now(), pkt.dst_station, pkt.flow_id,
                             pkt.pid, self.backlog_packets)
        return True

    def dequeue(self) -> Optional[Packet]:
        if not self._pkts:
            return None
        self.backlog_packets -= 1
        pkt = self._pkts.popleft()
        if self._em_dequeue is not None:
            now = self._now()
            self._em_dequeue(now, pkt.dst_station, pkt.pid,
                             now - pkt.enqueue_us)
        return pkt
