"""Emulated web traffic: page-load time over parallel TCP connections.

Figure 11 measures page load time (PLT) with a cURL-based client that
fetches a page and its resources over four parallel TCP connections,
including the initial DNS lookup.  This module reproduces that client:

1. DNS lookup — one small UDP request/response exchange;
2. the HTML document fetched on connection 0;
3. the remaining objects distributed round-robin over four persistent
   connections, each connection fetching its objects serially
   (request -> response -> next request);
4. PLT = time from fetch start until every object is delivered.

Two page profiles match the paper: a small page (56 KB over 3 requests)
and a large page (3 MB over 110 requests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.packet import AccessCategory, Packet, flow_id_allocator
from repro.mac.station import ClientStation
from repro.net.wire import Server
from repro.sim.engine import Simulator
from repro.traffic.tcp import TcpConnection

__all__ = ["WebPage", "WebFetch", "SMALL_PAGE", "LARGE_PAGE"]

DNS_REQUEST_BYTES = 80
DNS_RESPONSE_BYTES = 120
GET_REQUEST_BYTES = 100
PARALLEL_CONNECTIONS = 4


@dataclass(frozen=True)
class WebPage:
    """A page profile: the HTML document plus attached resources."""

    name: str
    html_bytes: int
    object_bytes: tuple[int, ...]

    @property
    def total_bytes(self) -> int:
        return self.html_bytes + sum(self.object_bytes)

    @property
    def request_count(self) -> int:
        return 1 + len(self.object_bytes)


def _make_page(name: str, total_bytes: int, requests: int, html_bytes: int) -> WebPage:
    objects = requests - 1
    remaining = total_bytes - html_bytes
    size = remaining // objects
    sizes = [size] * objects
    sizes[-1] += remaining - size * objects  # absorb rounding
    return WebPage(name=name, html_bytes=html_bytes, object_bytes=tuple(sizes))


#: "A small page (56 KB data in three requests)".
SMALL_PAGE = _make_page("small", total_bytes=56 * 1024, requests=3, html_bytes=16 * 1024)
#: "A large page (3 MB data in 110 requests)".
LARGE_PAGE = _make_page(
    "large", total_bytes=3 * 1024 * 1024, requests=110, html_bytes=20 * 1024
)


class WebFetch:
    """One page fetch by a client on ``station``.

    Call :meth:`start`; ``on_complete`` fires with the PLT in seconds.
    Repeated fetches (the experiment loops back-to-back fetches) should
    create a fresh ``WebFetch``, mirroring a fresh browser navigation.
    """

    def __init__(
        self,
        sim: Simulator,
        server: Server,
        station: ClientStation,
        page: WebPage,
        on_complete: Optional[Callable[[float], None]] = None,
        ac: AccessCategory = AccessCategory.BE,
    ) -> None:
        self.sim = sim
        self.server = server
        self.station = station
        self.page = page
        self.ac = ac
        self.on_complete = on_complete

        self._start_us: Optional[float] = None
        self.plt_s: Optional[float] = None

        self._dns_flow = flow_id_allocator()
        station.register_handler(self._dns_flow, self._on_dns_response)
        server.register_handler(self._dns_flow, self._on_dns_request)

        self._conns: List[TcpConnection] = []
        self._ctrl_flows: List[int] = []
        self._queues: List[List[int]] = []
        self._busy: List[bool] = []
        for idx in range(PARALLEL_CONNECTIONS):
            conn = TcpConnection(
                sim, server, station, direction="down", total_bytes=0, ac=ac
            )
            conn.sender.on_complete(lambda idx=idx: self._on_request_done(idx))
            ctrl = flow_id_allocator()
            server.register_handler(ctrl, self._on_get)
            self._conns.append(conn)
            self._ctrl_flows.append(ctrl)
            self._queues.append([])
            self._busy.append(False)
        self._outstanding = 0
        self._html_pending = False

    # ------------------------------------------------------------------
    def start(self) -> "WebFetch":
        self._start_us = self.sim.now
        request = Packet(
            self._dns_flow,
            DNS_REQUEST_BYTES,
            ac=self.ac,
            proto="dns",
            created_us=self.sim.now,
        )
        self.station.send(request)
        return self

    # -- DNS -------------------------------------------------------------
    def _on_dns_request(self, pkt: Packet) -> None:
        response = Packet(
            self._dns_flow,
            DNS_RESPONSE_BYTES,
            dst_station=self.station.index,
            ac=self.ac,
            proto="dns",
            created_us=self.sim.now,
        )
        self.server.send(response)

    def _on_dns_response(self, pkt: Packet) -> None:
        # Name resolved: fetch the HTML document on connection 0.
        self._html_pending = True
        self._enqueue_request(0, self.page.html_bytes)

    # -- request scheduling ----------------------------------------------
    def _enqueue_request(self, conn_idx: int, size: int) -> None:
        self._queues[conn_idx].append(size)
        self._outstanding += 1
        self._pump(conn_idx)

    def _pump(self, conn_idx: int) -> None:
        if self._busy[conn_idx] or not self._queues[conn_idx]:
            return
        size = self._queues[conn_idx].pop(0)
        self._busy[conn_idx] = True
        get = Packet(
            self._ctrl_flows[conn_idx],
            GET_REQUEST_BYTES,
            ac=self.ac,
            proto="http-get",
            created_us=self.sim.now,
            meta={"bytes": size, "conn": conn_idx},
        )
        self.station.send(get)

    def _on_get(self, pkt: Packet) -> None:
        assert pkt.meta is not None
        conn_idx = pkt.meta["conn"]
        size = pkt.meta["bytes"]
        segments = max(1, -(-size // 1448))
        self._conns[conn_idx].sender.add_segments(segments)

    def _on_request_done(self, conn_idx: int) -> None:
        self._busy[conn_idx] = False
        self._outstanding -= 1
        if self._html_pending:
            # HTML parsed: issue the attached resources round-robin
            # across the four connections.
            self._html_pending = False
            for i, size in enumerate(self.page.object_bytes):
                self._enqueue_request(i % PARALLEL_CONNECTIONS, size)
        self._pump(conn_idx)
        if self._outstanding == 0 and not any(self._queues):
            assert self._start_us is not None
            self.plt_s = (self.sim.now - self._start_us) / 1e6
            self._release()
            if self.on_complete is not None:
                self.on_complete(self.plt_s)

    def _release(self) -> None:
        """Unregister the finished fetch's flows; late packets drop."""
        self.station.unregister_handler(self._dns_flow)
        self.server.unregister_handler(self._dns_flow)
        for ctrl in self._ctrl_flows:
            self.server.unregister_handler(ctrl)
        for conn in self._conns:
            conn.close()
