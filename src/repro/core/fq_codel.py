"""FQ-CoDel flow queues and the shared DRR machinery.

This module provides the two building blocks the paper composes:

* :class:`FlowQueue` — one sub-queue: a FIFO of packets with a DRR byte
  deficit and its own CoDel state.
* :class:`TidState` — the per-TID scheduling lists of Algorithm 2
  (``new_queues`` / ``old_queues``) plus the TID-specific overflow queue of
  Algorithm 1.

The full per-TID structure (Algorithms 1 and 2, operating over a global
pool of queues shared by all TIDs) lives in
:mod:`repro.core.mac_fq`; the qdisc-layer FQ-CoDel in
:mod:`repro.qdisc.fq_codel_qdisc` is the same machinery with a single
implicit TID, which mirrors how the Linux ``fq_codel`` qdisc relates to the
mac80211 ``fq`` structure.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.core.codel import CoDelState
from repro.core.packet import Packet

__all__ = ["FlowQueue", "TidState", "hash_flow", "DEFAULT_QUANTUM_BYTES",
           "HASH_MULT"]

#: DRR quantum in bytes — one MTU-sized frame, as in the Linux defaults.
DEFAULT_QUANTUM_BYTES = 1514

#: Knuth multiplicative hash constant for flow → queue mapping.
HASH_MULT = 0x9E3779B1


def hash_flow(flow_id: int, num_queues: int) -> int:
    """Deterministically map a flow id onto one of ``num_queues`` buckets."""
    return ((flow_id * HASH_MULT) & 0xFFFFFFFF) % num_queues


class FlowQueue:
    """One FQ-CoDel sub-queue.

    ``tid`` is the TID the queue is currently assigned to (Algorithm 1
    lines 6–8); ``None`` when idle.  ``membership`` records which
    scheduling list the queue is on ('new', 'old', or None), so list moves
    in Algorithm 2 are O(1) decisions.
    """

    __slots__ = ("index", "pkts", "byte_backlog", "deficit", "codel", "tid",
                 "membership")

    def __init__(self, index: int) -> None:
        self.index = index
        self.pkts: Deque[Packet] = deque()
        self.byte_backlog = 0
        self.deficit = 0
        self.codel = CoDelState()
        self.tid: Optional[object] = None
        self.membership: Optional[str] = None

    # -- the _PacketQueue protocol used by codel_dequeue ----------------
    def pop_head(self) -> Optional[Packet]:
        if not self.pkts:
            return None
        pkt = self.pkts.popleft()
        self.byte_backlog -= pkt.size
        return pkt

    def append(self, pkt: Packet) -> None:
        self.pkts.append(pkt)
        self.byte_backlog += pkt.size

    def reset(self) -> None:
        """Return the queue to the idle pool (Algorithm 2 line 18)."""
        self.tid = None
        self.membership = None
        self.deficit = 0
        self.codel.reset()


class TidState:
    """Scheduling state for one TID (one station × access category).

    Holds the two DRR lists of Algorithm 2 and the dedicated overflow
    queue that absorbs hash collisions (Algorithm 1 line 7).  ``backlog``
    counts packets across all queues assigned to this TID, so the MAC can
    cheaply test whether a TID has anything to send.
    """

    __slots__ = ("station", "ac", "new_queues", "old_queues",
                 "overflow_queue", "backlog", "activated")

    def __init__(self, station: Optional[int], ac: object,
                 overflow_queue: FlowQueue) -> None:
        self.station = station
        self.ac = ac
        self.new_queues: Deque[FlowQueue] = deque()
        self.old_queues: Deque[FlowQueue] = deque()
        self.overflow_queue = overflow_queue
        self.backlog = 0
        #: Set by the first queue that joins ``new_queues``.
        self.activated = False

    def schedulable_queue(self) -> Optional[FlowQueue]:
        """First queue per Algorithm 2 lines 2–7 (new before old)."""
        if self.new_queues:
            return self.new_queues[0]
        if self.old_queues:
            return self.old_queues[0]
        return None

    def move_to_old(self, queue: FlowQueue) -> None:
        """Move ``queue`` from wherever it is to the tail of old_queues."""
        self._remove_from_lists(queue)
        self.old_queues.append(queue)
        queue.membership = "old"

    def add_new(self, queue: FlowQueue) -> None:
        self.new_queues.append(queue)
        queue.membership = "new"

    def delete_queue(self, queue: FlowQueue) -> None:
        """Remove ``queue`` from scheduling entirely (Algorithm 2 l. 17–18)."""
        self._remove_from_lists(queue)
        queue.reset()

    def _remove_from_lists(self, queue: FlowQueue) -> None:
        if queue.membership == "new":
            self.new_queues.remove(queue)
        elif queue.membership == "old":
            self.old_queues.remove(queue)
        queue.membership = None
