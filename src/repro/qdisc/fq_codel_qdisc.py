"""The ``fq_codel`` qdisc — FQ-CoDel installed at the qdisc layer.

This is the "FQ-CoDel" baseline configuration: best-in-class queue
management, but sitting *above* the MAC's unmanaged queues (Figure 2), so
its effect is limited by the driver FIFO below it — which is precisely the
observation that motivates the paper's integrated structure.

Implementation-wise the qdisc is the per-TID structure of
:mod:`repro.core.mac_fq` with a single implicit TID, matching how Linux's
``fq_codel`` relates to the mac80211 ``fq`` code.  Linux defaults:
1024 flow queues, 10240-packet limit, one-MTU quantum.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.codel import PerStationCoDelTuner
from repro.core.mac_fq import MacFqStructure
from repro.core.packet import Packet
from repro.qdisc.base import DropCallback, Qdisc

__all__ = ["FqCodelQdisc", "FQ_CODEL_DEFAULT_LIMIT", "FQ_CODEL_DEFAULT_FLOWS"]

FQ_CODEL_DEFAULT_LIMIT = 10_240
FQ_CODEL_DEFAULT_FLOWS = 1024


class FqCodelQdisc(Qdisc):
    """FQ-CoDel at the qdisc layer (single-TID wrapper of the core)."""

    def __init__(
        self,
        now_fn: Callable[[], float],
        limit: int = FQ_CODEL_DEFAULT_LIMIT,
        flows: int = FQ_CODEL_DEFAULT_FLOWS,
        on_drop: Optional[DropCallback] = None,
        trace=None,
    ) -> None:
        super().__init__(on_drop)
        # The wrapped structure emits the queue/codel records of a
        # ``trace`` bus itself, labelled with the qdisc layer.
        self._fq = MacFqStructure(
            now_fn,
            num_queues=flows,
            limit=limit,
            codel_tuner=PerStationCoDelTuner(enabled=False),
            on_drop=self._on_fq_drop,
            trace=trace,
            layer="qdisc",
        )
        self._tid = self._fq.tid(None, "qdisc")

    def _on_fq_drop(self, pkt: Packet, reason: str) -> None:
        self._drop(pkt, reason)

    def enqueue(self, pkt: Packet) -> bool:
        """False when the enqueue dropped a packet at the limit (possibly
        another flow's head); only the limit drops on enqueue."""
        fq = self._fq
        before = fq.drops_overlimit
        fq.enqueue(self._tid, pkt)
        self.backlog_packets = fq.backlog_packets
        return fq.drops_overlimit == before

    def dequeue(self) -> Optional[Packet]:
        pkt = self._fq.dequeue(self._tid)
        self.backlog_packets = self._fq.backlog_packets
        return pkt

    @property
    def codel_drops(self) -> int:
        return self._fq.drops_codel

    @property
    def overlimit_drops(self) -> int:
        return self._fq.drops_overlimit
