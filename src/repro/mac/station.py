"""Client stations — unmodified WiFi devices.

The paper deliberately changes only the access point; clients stay stock
(Ubuntu 16.04 in the testbed).  "Stock" still means a qdisc on the
client's wireless interface, and Ubuntu 16.04 (systemd ≥ 217) defaults
``net.core.default_qdisc`` to **fq_codel** — so the default client here
queues its uplink through FQ-CoDel, which keeps its own sparse flows
(ping replies, TCP acks) from drowning behind bulk uploads.  Pass
``queueing="fifo"`` for a pre-fq_codel client (a 1000-packet tail-drop
interface queue).

Clients aggregate their own A-MPDUs at their configured rate, give VO
frames priority, contend for the medium like any node, and deliver
received packets to registered flow handlers (the transport sinks).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.core.packet import AccessCategory, Packet
from repro.mac.aggregation import Aggregate, AggregateBuilder, AggregationLimits
from repro.mac.hwqueue import HardwareQueue
from repro.phy.rates import PhyRate
from repro.qdisc.base import Qdisc
from repro.qdisc.fq_codel_qdisc import FqCodelQdisc
from repro.qdisc.pfifo import PfifoQdisc
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mac.ap import AccessPoint
    from repro.mac.medium import Medium

__all__ = ["ClientStation", "CLIENT_QUEUE_LIMIT"]

#: Interface queue length for a FIFO-queueing client (Linux txqueuelen).
CLIENT_QUEUE_LIMIT = 1000

PacketHandler = Callable[[Packet], None]
BurstHandler = Callable[[List[Packet]], None]


class ClientStation:
    """One wireless client (uplink transmitter, downlink receiver)."""

    def __init__(
        self,
        index: int,
        rate: PhyRate,
        sim: Simulator,
        queue_limit: int = CLIENT_QUEUE_LIMIT,
        limits: Optional[AggregationLimits] = None,
        queueing: str = "fq_codel",
    ) -> None:
        if queueing not in ("fq_codel", "fifo"):
            raise ValueError("queueing must be 'fq_codel' or 'fifo'")
        self.index = index
        self.rate = rate
        self.sim = sim
        self.queueing = queueing

        if queueing == "fq_codel":
            be_queue: Qdisc = FqCodelQdisc(partial(getattr, sim, "now"),
                                           on_drop=self._on_uplink_drop)
        else:
            be_queue = PfifoQdisc(queue_limit, on_drop=self._on_uplink_drop)
        # VO uplink: a short strict-priority FIFO in both variants.
        vo_queue: Qdisc = PfifoQdisc(queue_limit, on_drop=self._on_uplink_drop)
        self._uplink: Dict[AccessCategory, Qdisc] = {
            AccessCategory.BE: be_queue,
            AccessCategory.VO: vo_queue,
        }
        self._builder = AggregateBuilder(limits)
        self._hw = HardwareQueue()
        # The uplink fill walks this plan, VO first: per AC, the builder's
        # holdback key, the qdisc and the hardware queue's deque, bound
        # once so a queued ack pays no backlog or depth probe call.
        self._fill_plan = tuple(
            (ac, (index, ac), self._uplink[ac], self._hw._queues[ac])
            for ac in (AccessCategory.VO, AccessCategory.BE)
        )
        self._handlers: Dict[int, PacketHandler] = {}
        self._burst_handlers: Dict[int, BurstHandler] = {}
        self.medium: Optional["Medium"] = None
        self.ap: Optional["AccessPoint"] = None
        #: The medium's slot for this station (set by :meth:`attach`);
        #: churn flips its ``detached``.
        self._slot = None

        #: Counters for tests and diagnostics.
        self.uplink_drops = 0
        self.tx_packets = 0
        self.rx_packets = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, medium: "Medium", ap: "AccessPoint") -> None:
        self.medium = medium
        self.ap = ap
        self._slot = medium.attach(self, self._hw, is_ap=False,
                                   bss=getattr(ap, "bss", 0))

    def register_handler(self, flow_id: int, handler: PacketHandler,
                         burst: Optional[BurstHandler] = None) -> None:
        """Deliver received packets of ``flow_id`` to ``handler``.

        ``burst(packets)``, if given, receives in one call the packets
        of an aggregate that carries nothing but this flow; it must
        leave the same state as ``handler`` called on each in order.
        """
        self._handlers[flow_id] = handler
        if burst is not None:
            self._burst_handlers[flow_id] = burst

    def unregister_handler(self, flow_id: int) -> None:
        """Forget ``flow_id``: its packets are counted and dropped."""
        del self._handlers[flow_id]
        self._burst_handlers.pop(flow_id, None)

    def _on_uplink_drop(self, pkt: Packet, reason: str) -> None:
        self.uplink_drops += 1
        # Client drops join the AP's unified funnel (layer 'client') so
        # one place answers "where did my packets go?" for the whole BSS.
        if self.ap is not None:
            self.ap.drops.report(pkt, "client", reason)

    # ------------------------------------------------------------------
    # Uplink (client -> AP)
    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Queue a packet for uplink transmission."""
        pkt.src_station = self.index
        pkt.created_us = self.sim.now
        pkt.enqueue_us = self.sim.now
        ac = pkt.ac if pkt.ac in self._uplink else AccessCategory.BE
        accepted = self._uplink[ac].enqueue(pkt)
        self._fill_hw()
        medium = self.medium
        assert medium is not None, "station not attached"
        # Inlined ``notify_backlog()`` guard, as in the AP's
        # ``send_downstream``: mid-run the channel is nearly always busy.
        if not medium._busy and not medium._arbitration_scheduled:
            medium.notify_backlog()
        return accepted

    def _fill_hw(self) -> None:
        hw = self._hw
        depth = hw.depth
        build = self._builder.build
        holdback = self._builder._holdback
        for ac, key, qdisc, hw_queue in self._fill_plan:
            while len(hw_queue) < depth:
                if not qdisc.backlog_packets and key not in holdback:
                    break
                agg = build(self.index, ac, self.rate, qdisc.dequeue)
                if agg is None:
                    break
                hw.push(agg)

    def set_detached(self, detached: bool) -> None:
        """Mark the station as (de)tached from the BSS (churn).

        A detached station keeps its medium slot but draws no backoff,
        and the AP does not schedule it; its uplink queues park."""
        self._slot.detached = detached
        if not detached:
            self._fill_hw()
            if self._hw.has_pending():
                self._slot.mark_ready()
                self.medium.notify_backlog()

    # ------------------------------------------------------------------
    # Contender protocol (the medium pops ``_hw`` itself)
    # ------------------------------------------------------------------
    def txop_complete(self, agg: Aggregate, success: bool) -> None:
        if success:
            if self.ap is not None:
                self.tx_packets += agg.n_packets
                self.ap.receive_uplink(agg)
            else:
                # Removed from its BSS (remove_station) while this frame
                # was on the air: no AP is listening any more.
                self.uplink_drops += agg.n_packets
        else:
            if not self._hw.requeue_retry(agg):
                # Retry limit hit: the packets are gone — report them to
                # the unified funnel so uplink losses are visible too
                # (previously they evaporated with no accounting).
                for pkt in agg.packets:
                    self.uplink_drops += 1
                    if self.ap is not None:
                        self.ap.drops.report(pkt, "client", "retry")
        self._fill_hw()

    # ------------------------------------------------------------------
    # Downlink (AP -> client)
    # ------------------------------------------------------------------
    def receive_from_ap(self, agg: Aggregate) -> None:
        """Deliver a successfully received downlink aggregate."""
        packets = agg.packets
        self.rx_packets += len(packets)
        flow_id = packets[0].flow_id
        burst = self._burst_handlers.get(flow_id)
        if burst is not None:
            for pkt in packets:
                if pkt.flow_id != flow_id:
                    break
            else:
                burst(packets)
                return
        handlers = self._handlers
        for pkt in packets:
            handler = handlers.get(pkt.flow_id)
            if handler is not None:
                handler(pkt)

    # ------------------------------------------------------------------
    @property
    def uplink_backlog(self) -> int:
        return sum(q.backlog_packets for q in self._uplink.values())
