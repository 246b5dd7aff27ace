"""Unified drop accounting: one funnel for every layer's packet drops.

Before this module, drop reporting was fragmented: the qdisc layer had a
single ``on_drop`` callback, the MAC structure another, and retry drops
bypassed both — so answering "where did my packets go?" meant wiring
three hooks with three signatures.  :class:`DropReporter` is the single
funnel: every layer reports ``(packet, layer, reason)`` with explicit
strings, consumers attach either legacy 2-argument hooks
(``hook(pkt, reason)`` — the signature
:meth:`repro.mac.ap.AccessPoint.add_drop_hook` always had) or
3-argument observers that also see the layer, and the reporter keeps
authoritative ``(layer, reason)`` counts for diagnostics and telemetry.

Layers: ``qdisc`` (pfifo / fq_codel above the driver), ``mac`` (the
integrated per-TID structure), ``hw`` (retry-limit drops at the hardware
queue), ``client`` (station-side uplink queues).  Reasons: ``overlimit``,
``codel``, ``retry``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.packet import Packet

__all__ = ["DropReporter", "DropHook", "DropObserver"]

#: Legacy hook signature: ``hook(pkt, reason)``.
DropHook = Callable[["Packet", str], None]
#: Full-information observer: ``observer(pkt, layer, reason)``.
DropObserver = Callable[["Packet", str, str], None]


class DropReporter:
    """Collects drops from every layer behind one ``report`` call."""

    __slots__ = ("_hooks", "_observers", "counts")

    def __init__(self) -> None:
        self._hooks: List[DropHook] = []
        self._observers: List[DropObserver] = []
        #: layer -> reason -> packets dropped.
        self.counts: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    def add_hook(self, hook: DropHook) -> None:
        """Attach a legacy ``hook(pkt, reason)`` consumer."""
        self._hooks.append(hook)

    def add_observer(self, observer: DropObserver) -> None:
        """Attach an ``observer(pkt, layer, reason)`` consumer."""
        self._observers.append(observer)

    def callback(self, layer: str) -> DropHook:
        """A 2-argument ``on_drop`` callback bound to ``layer``.

        This is the adapter the access point hands to each queueing
        component: the component keeps its plain ``on_drop(pkt, reason)``
        interface while the reporter learns which layer dropped.  Drops
        are the hot path of saturating workloads (a FIFO tail-drops most
        offered packets), so the closure inlines :meth:`report` — one
        call per drop, not two.
        """
        layer_counts = self.counts.setdefault(layer, {})
        hooks = self._hooks
        observers = self._observers

        def on_drop(pkt: "Packet", reason: str) -> None:
            layer_counts[reason] = layer_counts.get(reason, 0) + 1
            if hooks:
                for hook in hooks:
                    hook(pkt, reason)
            if observers:
                for observer in observers:
                    observer(pkt, layer, reason)
        return on_drop

    # ------------------------------------------------------------------
    def report(self, pkt: "Packet", layer: str, reason: str) -> None:
        layer_counts = self.counts.setdefault(layer, {})
        layer_counts[reason] = layer_counts.get(reason, 0) + 1
        for hook in self._hooks:
            hook(pkt, reason)
        for observer in self._observers:
            observer(pkt, layer, reason)

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        return sum(sum(r.values()) for r in self.counts.values())
