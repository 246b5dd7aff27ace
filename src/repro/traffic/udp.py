"""UDP constant-bit-rate traffic (the paper's one-way UDP tests).

The airtime/throughput validation experiments (Figures 5–6, Table 1) run
saturating one-way UDP to each station: the offered rate is set above the
station's achievable share so the AP queues are always backlogged.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.packet import AccessCategory, Packet, flow_id_allocator
from repro.mac.station import ClientStation
from repro.net.wire import Server
from repro.sim.batch import BatchSource
from repro.sim.engine import Simulator
from repro.telemetry.streaming import QuantileSketch
from repro.traffic.arrivals import cbr_chunks

__all__ = ["UdpDownloadFlow", "UdpSink", "DEFAULT_UDP_PACKET"]

#: Wire size of a bulk UDP packet (bytes) — the paper models 1500.
DEFAULT_UDP_PACKET = 1500


class UdpSink:
    """Receives a UDP stream and tracks goodput and one-way delay.

    Delay is accumulated in a
    :class:`~repro.telemetry.streaming.QuantileSketch` rather than a
    per-packet list, so a sink's memory stays O(1) no matter how long
    the run — count, mean, min/max, and quantiles remain available via
    the sketch.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.rx_bytes = 0
        self.rx_packets = 0
        #: One-way delay sketch (µs), covering the measurement window.
        self.delay = QuantileSketch()
        self._window_start_us = 0.0
        self._window_bytes = 0

    def on_packet(self, pkt: Packet) -> None:
        self.on_burst((pkt,))

    def on_burst(self, packets: Sequence[Packet]) -> None:
        """Account for packets received together (one aggregate)."""
        size = sum([pkt.size for pkt in packets])
        self.rx_bytes += size
        self._window_bytes += size
        self.rx_packets += len(packets)
        now = self.sim.now
        self.delay.observe_many([now - pkt.created_us for pkt in packets])

    def reset_window(self) -> None:
        """Start a fresh measurement window (drops warm-up samples)."""
        self._window_start_us = self.sim.now
        self._window_bytes = 0
        self.delay = QuantileSketch()

    def window_throughput_bps(self, end_us: Optional[float] = None) -> float:
        end = end_us if end_us is not None else self.sim.now
        elapsed = end - self._window_start_us
        if elapsed <= 0:
            return 0.0
        return 8 * self._window_bytes / (elapsed / 1e6)


class UdpDownloadFlow:
    """Server -> station CBR UDP flow."""

    def __init__(
        self,
        sim: Simulator,
        server: Server,
        station: ClientStation,
        rate_bps: float,
        packet_size: int = DEFAULT_UDP_PACKET,
        ac: AccessCategory = AccessCategory.BE,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.server = server
        self.station = station
        self.packet_size = packet_size
        self.ac = ac
        self.flow_id = flow_id_allocator()
        self.sink = UdpSink(sim)
        self._seq = 0

        station.register_handler(self.flow_id, self.sink.on_packet,
                                 burst=self.sink.on_burst)
        self.interval_us = 8 * packet_size / rate_bps * 1e6
        self._source: Optional[BatchSource] = None
        self._dst = station.index
        #: The network's AP-side delivery target, bound by start().
        self._deliver = None

    @property
    def tx_packets(self) -> int:
        """Packets that have left the wire so far (each bumps the seq)."""
        return self._seq

    def start(self, delay_us: float = 0.0) -> "UdpDownloadFlow":
        network = self.server.network
        if network is None:
            raise RuntimeError("server not attached to a network")
        # Arrivals replay the exact timestamp chain a PeriodicTimer with
        # the same first delay and interval would walk (left-fold float
        # adds), precomputed in chunks instead of one add per packet.
        # Nothing can observe a packet on the wire, so the source fires
        # once per arrival: when the packet sent at ``t`` leaves it.
        self._deliver = network._deliver_down
        chunks = cbr_chunks(self.sim.now + delay_us, self.interval_us)
        self._source = BatchSource(
            self.sim, chunks, self._emit, latency_us=network.delay_us
        ).start()
        return self

    def stop(self) -> None:
        """Send nothing more; packets already on the wire still arrive."""
        if self._source is not None:
            self._source.stop()

    def _emit(self, sent_us: float) -> None:
        seq = self._seq + 1
        self._seq = seq
        # Positional Packet call (dst_station, src_station, ac, proto,
        # seq, created_us): one packet per arrival makes the keyword
        # binding overhead measurable.
        self._deliver(Packet(
            self.flow_id, self.packet_size,
            self._dst, None, self.ac, "udp", seq, sent_us,
        ))
