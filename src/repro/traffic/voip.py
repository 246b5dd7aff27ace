"""VoIP traffic: an isochronous G.711-like stream with quality metrics.

Table 2 measures VoIP mixed with bulk traffic, with the voice stream
marked either best-effort (BE) or voice (VO — queueing priority and no
aggregation), at two baseline path delays.  The stream here is the usual
G.711 model: one 172-byte packet (160 B of audio + RTP/UDP/IP) every
20 ms.  The sink records one-way delay, RFC 3550 interarrival jitter and
loss, from which :mod:`repro.analysis.mos` computes the MOS estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.mos import EModelParams, estimate_mos
from repro.core.packet import AccessCategory, Packet, flow_id_allocator
from repro.mac.station import ClientStation
from repro.net.wire import Server
from repro.sim.engine import PeriodicTimer, Simulator

__all__ = ["VoipFlow", "VoipStats", "VOIP_PACKET_BYTES", "VOIP_INTERVAL_US"]

#: 160 B G.711 payload (20 ms of audio) + RTP/UDP/IP headers.
VOIP_PACKET_BYTES = 172
VOIP_INTERVAL_US = 20_000.0


@dataclass(frozen=True)
class VoipStats:
    """Measured network conditions and the derived MOS."""

    mean_delay_ms: float
    jitter_ms: float
    loss_fraction: float
    mos: float
    samples: int


class VoipFlow:
    """Server -> station voice stream (the direction Table 2 evaluates)."""

    def __init__(
        self,
        sim: Simulator,
        server: Server,
        station: ClientStation,
        ac: AccessCategory = AccessCategory.BE,
        interval_us: float = VOIP_INTERVAL_US,
        packet_bytes: int = VOIP_PACKET_BYTES,
    ) -> None:
        self.sim = sim
        self.server = server
        self.station = station
        self.ac = ac
        self.packet_bytes = packet_bytes
        self.flow_id = flow_id_allocator()

        self.tx_packets = 0
        #: Packets received inside the measurement window.
        self.rx_in_window = 0
        self._delay_sum_us = 0.0
        self._jitter_us = 0.0  # RFC 3550 running interarrival jitter
        self._last_transit_us: float | None = None
        self._seq = 0
        self._window_first_seq = 1

        station.register_handler(self.flow_id, self._on_packet)
        self._timer = PeriodicTimer(sim, interval_us, self._emit)
        sim.at_window_start(self._on_window_start)

    def start(self, delay_us: float = 0.0) -> "VoipFlow":
        self._timer.start(first_delay_us=delay_us)
        return self

    def stop(self) -> None:
        self._timer.stop()

    def _on_window_start(self) -> None:
        """Discard warm-up samples."""
        self.rx_in_window = 0
        self._delay_sum_us = 0.0
        self._jitter_us = 0.0
        self._last_transit_us = None
        self._window_first_seq = self._seq + 1
        self.tx_packets = 0

    # ------------------------------------------------------------------
    def _emit(self) -> None:
        self._seq += 1
        self.tx_packets += 1
        pkt = Packet(
            self.flow_id,
            self.packet_bytes,
            dst_station=self.station.index,
            ac=self.ac,
            proto="voip",
            seq=self._seq,
            created_us=self.sim.now,
        )
        self.server.send(pkt)

    def _on_packet(self, pkt: Packet) -> None:
        if pkt.seq < self._window_first_seq:
            return
        transit = self.sim.now - pkt.created_us
        self.rx_in_window += 1
        self._delay_sum_us += transit
        if self._last_transit_us is not None:
            delta = abs(transit - self._last_transit_us)
            self._jitter_us += (delta - self._jitter_us) / 16.0
        self._last_transit_us = transit

    # ------------------------------------------------------------------
    def stats(self, params: EModelParams = EModelParams()) -> VoipStats:
        """Summarise the measurement window into delay/jitter/loss/MOS."""
        received = self.rx_in_window
        sent = self.tx_packets
        loss = 0.0 if sent == 0 else max(0.0, 1.0 - received / sent)
        mean_delay_ms = (
            self._delay_sum_us / received / 1000.0 if received else 1000.0
        )
        jitter_ms = self._jitter_us / 1000.0
        return VoipStats(
            mean_delay_ms=mean_delay_ms,
            jitter_ms=jitter_ms,
            loss_fraction=loss,
            mos=estimate_mos(mean_delay_ms, jitter_ms, loss, params),
            samples=received,
        )
