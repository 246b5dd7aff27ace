"""Unified drop accounting: one funnel for every layer's packet drops.

Before this module, drop reporting was fragmented: the qdisc layer had a
single ``on_drop`` callback, the MAC structure another, and retry drops
bypassed both — so answering "where did my packets go?" meant wiring
three hooks with three signatures.  :class:`DropReporter` is the single
funnel: every layer reports ``(packet, layer, reason)`` with explicit
strings, consumers attach ``observer(pkt, layer, reason)`` callables,
and the reporter keeps authoritative ``(layer, reason)`` counts for
diagnostics and telemetry.

Layers: ``qdisc`` (pfifo / fq_codel above the driver), ``mac`` (the
integrated per-TID structure), ``hw`` (retry-limit drops at the hardware
queue), ``client`` (station-side uplink queues).  Reasons: ``overlimit``,
``codel``, ``retry``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.packet import Packet

__all__ = ["DropReporter", "DropObserver"]

#: Full-information observer: ``observer(pkt, layer, reason)``.
DropObserver = Callable[["Packet", str, str], None]


class DropReporter:
    """Collects drops from every layer behind one ``report`` call."""

    __slots__ = ("_observers", "counts")

    def __init__(self) -> None:
        self._observers: List[DropObserver] = []
        #: layer -> reason -> packets dropped.
        self.counts: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    def add_observer(self, observer: DropObserver) -> None:
        """Attach an ``observer(pkt, layer, reason)`` consumer."""
        self._observers.append(observer)

    def callback(self, layer: str) -> Callable[["Packet", str], None]:
        """A 2-argument ``on_drop`` callback bound to ``layer``.

        This is the adapter the access point hands to each queueing
        component: the component keeps its plain ``on_drop(pkt, reason)``
        interface while the reporter learns which layer dropped.  Drops
        are the hot path of saturating workloads (a FIFO tail-drops most
        offered packets), so the closure inlines :meth:`report` — one
        call per drop, not two.
        """
        layer_counts = self.counts.setdefault(layer, {})
        observers = self._observers

        def on_drop(pkt: "Packet", reason: str) -> None:
            layer_counts[reason] = layer_counts.get(reason, 0) + 1
            if observers:
                for observer in observers:
                    observer(pkt, layer, reason)
        return on_drop

    # ------------------------------------------------------------------
    def report(self, pkt: "Packet", layer: str, reason: str) -> None:
        layer_counts = self.counts.setdefault(layer, {})
        layer_counts[reason] = layer_counts.get(reason, 0) + 1
        for observer in self._observers:
            observer(pkt, layer, reason)

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        return sum(sum(r.values()) for r in self.counts.values())
