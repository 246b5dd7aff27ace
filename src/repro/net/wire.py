"""The wired side of the testbed: server, Gigabit Ethernet hop, routing.

The paper's server sits one GbE hop from the AP and sources/sinks all test
flows.  The wire is never the bottleneck, so it is modelled as a fixed
one-way delay (the VoIP experiments of Table 2 add 5 ms or 50 ms of
baseline path delay here) with no queueing.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.core.packet import Packet
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mac.ap import AccessPoint

__all__ = ["Server", "Network", "DEFAULT_WIRE_DELAY_US"]

#: One-way delay of the GbE hop (µs); sub-millisecond LAN latency.
DEFAULT_WIRE_DELAY_US = 100.0

PacketHandler = Callable[[Packet], None]


class Server:
    """The wired endpoint that sources and sinks all test flows."""

    def __init__(self) -> None:
        self._handlers: Dict[int, PacketHandler] = {}
        self.network: Optional["Network"] = None
        self.rx_packets = 0

    def register_handler(self, flow_id: int, handler: PacketHandler) -> None:
        self._handlers[flow_id] = handler

    def send(self, pkt: Packet) -> None:
        """Send a packet toward its destination station."""
        assert self.network is not None, "server not attached to a network"
        self.network.to_ap(pkt)

    def receive(self, pkt: Packet) -> None:
        self.rx_packets += 1
        handler = self._handlers.get(pkt.flow_id)
        if handler is not None:
            handler(pkt)


class Network:
    """Fixed-delay wired backhaul between the server and every AP.

    Downstream packets go to the AP *currently* serving their
    destination (``serving`` is the testbed's live station -> AP-key
    map), resolved at delivery time: a packet that was on the wire when
    its station roamed is handed to the new cell, like a campus switch
    re-learning a MAC table entry.
    """

    def __init__(
        self,
        sim: Simulator,
        server: Server,
        aps: Dict[int, "AccessPoint"],
        serving: Dict[int, int],
        delay_us: float = DEFAULT_WIRE_DELAY_US,
    ) -> None:
        if delay_us < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.server = server
        self.delay_us = delay_us
        self._aps = aps
        self._serving = serving
        server.network = self
        for ap in aps.values():
            ap.set_network(self)
        # Prebound delivery targets: the wire is crossed once per packet,
        # so the hop schedules (callback, packet) entries instead of
        # allocating a closure per packet.  Traffic sources cache
        # ``_deliver_down``; a lone AP can never lose a station to a
        # roam, so it is bound directly and no routing frame runs.
        if len(aps) == 1:
            (only,) = aps.values()
            self._deliver_down = only.send_downstream
        else:
            self._deliver_down = self._route_down
        self._deliver_up = server.receive
        self._schedule_call = sim.schedule_call

    def _route_down(self, pkt: Packet) -> None:
        self._aps[self._serving[pkt.dst_station]].send_downstream(pkt)

    def to_ap(self, pkt: Packet) -> None:
        """Server -> serving AP direction (downstream)."""
        pkt.created_us = self.sim.now
        self._schedule_call(self.delay_us, self._deliver_down, pkt)

    def to_server(self, pkt: Packet) -> None:
        """AP -> server direction (upstream)."""
        self._schedule_call(self.delay_us, self._deliver_up, pkt)
