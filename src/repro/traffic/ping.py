"""ICMP ping — the paper's latency-under-load probe.

An echo request travels server -> AP -> station through the same queues as
the competing bulk traffic; the station immediately answers with an echo
reply, and the server records the round-trip time.  Figures 1, 4, 8 and 10
are CDFs of these RTT samples.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.packet import AccessCategory, Packet, flow_id_allocator
from repro.mac.station import ClientStation
from repro.net.wire import Server
from repro.sim.engine import PeriodicTimer, Simulator

__all__ = ["PingFlow", "PING_PACKET_BYTES", "DEFAULT_PING_INTERVAL_US"]

#: ICMP echo size in bytes (64-byte payload + IP header ≈ fping default).
PING_PACKET_BYTES = 84
#: Probe interval: 10 probes per second.
DEFAULT_PING_INTERVAL_US = 100_000.0


class PingFlow:
    """Periodic ICMP echo from the server to one station."""

    def __init__(
        self,
        sim: Simulator,
        server: Server,
        station: ClientStation,
        interval_us: float = DEFAULT_PING_INTERVAL_US,
        ac: AccessCategory = AccessCategory.BE,
        observer: Optional[Callable[[int, float], None]] = None,
    ) -> None:
        self.sim = sim
        self.server = server
        self.station = station
        self.ac = ac
        #: Called ``observer(station_index, rtt_us)`` on every completed
        #: round trip — how streaming telemetry sees RTT samples online
        #: without retaining or re-reading ``rtts_us``.
        self.observer = observer
        self.flow_id = flow_id_allocator()
        self.rtts_us: list[float] = []
        self.tx_probes = 0
        self.lost = 0
        self._outstanding: dict[int, float] = {}
        self._seq = 0

        station.register_handler(self.flow_id, self._on_request_at_station)
        server.register_handler(self.flow_id, self._on_reply_at_server)
        self._timer = PeriodicTimer(sim, interval_us, self._probe)
        sim.at_window_start(self._on_window_start)

    def start(self, delay_us: float = 0.0) -> "PingFlow":
        self._timer.start(first_delay_us=delay_us)
        return self

    def stop(self) -> None:
        self._timer.stop()

    def _on_window_start(self) -> None:
        """Discard warm-up samples."""
        self.rtts_us.clear()
        self.lost = 0

    # ------------------------------------------------------------------
    def _probe(self) -> None:
        self._seq += 1
        self.tx_probes += 1
        self._outstanding[self._seq] = self.sim.now
        pkt = Packet(
            self.flow_id,
            PING_PACKET_BYTES,
            dst_station=self.station.index,
            ac=self.ac,
            proto="icmp",
            seq=self._seq,
            created_us=self.sim.now,
        )
        self.server.send(pkt)

    def _on_request_at_station(self, pkt: Packet) -> None:
        reply = Packet(
            self.flow_id,
            PING_PACKET_BYTES,
            ac=self.ac,
            proto="icmp",
            seq=pkt.seq,
            created_us=self.sim.now,
        )
        self.station.send(reply)

    def _on_reply_at_server(self, pkt: Packet) -> None:
        sent = self._outstanding.pop(pkt.seq, None)
        if sent is None:
            return
        rtt = self.sim.now - sent
        self.rtts_us.append(rtt)
        if self.observer is not None:
            self.observer(self.station.index, rtt)

    # ------------------------------------------------------------------
    @property
    def rtts_ms(self) -> list[float]:
        return [r / 1000.0 for r in self.rtts_us]
