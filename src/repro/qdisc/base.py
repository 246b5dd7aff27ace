"""Queueing-discipline interface for the Linux qdisc layer.

The qdisc layer sits above the MAC (Figure 2).  In the FIFO and FQ-CoDel
configurations the AP installs a qdisc here and the legacy driver pulls
packets from it; the FQ-MAC and Airtime configurations bypass the layer
entirely (Figure 3, "Qdisc layer (bypassed)").
"""

from __future__ import annotations

import abc
from typing import Callable, Optional

from repro.core.packet import Packet

__all__ = ["Qdisc", "DropCallback"]

DropCallback = Callable[[Packet, str], None]


class Qdisc(abc.ABC):
    """Abstract queueing discipline.

    Concrete qdiscs count their backlog in ``backlog_packets`` and report
    drops through the optional ``on_drop`` callback set at construction.
    """

    def __init__(self, on_drop: Optional[DropCallback] = None) -> None:
        self.on_drop = on_drop
        self.backlog_packets = 0
        self.drops = 0

    @abc.abstractmethod
    def enqueue(self, pkt: Packet) -> bool:
        """Queue ``pkt``; returns False if it was dropped instead."""

    @abc.abstractmethod
    def dequeue(self) -> Optional[Packet]:
        """Remove and return the next packet, or ``None`` when empty."""

    def has_backlog(self) -> bool:
        return self.backlog_packets > 0

    def _drop(self, pkt: Packet, reason: str) -> None:
        # Drop *records* are emitted by the unified DropReporter funnel
        # (repro.core.drops), not here — on_drop chains up to it.
        self.drops += 1
        if self.on_drop is not None:
            self.on_drop(pkt, reason)
