"""UDP constant-bit-rate traffic (the paper's one-way UDP tests).

The airtime/throughput validation experiments (Figures 5–6, Table 1) run
saturating one-way UDP to each station: the offered rate is set above the
station's achievable share so the AP queues are always backlogged.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator, Optional, Sequence

from repro.core.packet import AccessCategory, Packet, flow_id_allocator
from repro.mac.station import ClientStation
from repro.net.wire import Server
from repro.sim.engine import Simulator
from repro.telemetry.streaming import QuantileSketch
from repro.traffic.arrivals import cbr_chunks

__all__ = ["UdpDownloadFlow", "UdpSink", "DEFAULT_UDP_PACKET"]

#: Wire size of a bulk UDP packet (bytes) — the paper models 1500.
DEFAULT_UDP_PACKET = 1500


class WindowBytes:
    """Bytes received since the simulator's measurement window opened."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._window_bytes = 0
        #: Unsubscribes from the window (a finished flow).
        self.leave_window = sim.at_window_start(self._on_window_start)

    def _on_window_start(self) -> None:
        self._window_bytes = 0

    def window_throughput_bps(self, end_us: Optional[float] = None) -> float:
        end = end_us if end_us is not None else self.sim.now
        elapsed = end - self.sim.window_start_us
        if elapsed <= 0:
            return 0.0
        return 8 * self._window_bytes / (elapsed / 1e6)


class UdpSink(WindowBytes):
    """Receives a UDP stream and tracks goodput and one-way delay.

    Delay is accumulated in a
    :class:`~repro.telemetry.streaming.QuantileSketch` rather than a
    per-packet list, so a sink's memory stays O(1) no matter how long
    the run — count, mean, min/max, and quantiles remain available via
    the sketch.
    """

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim)
        self.rx_bytes = 0
        self.rx_packets = 0
        #: One-way delay sketch (µs), covering the measurement window.
        self.delay = QuantileSketch()

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

    def _on_window_start(self) -> None:
        super()._on_window_start()
        self.delay = QuantileSketch()


class UdpDownloadFlow:
    """Server -> station CBR UDP flow.

    Arrivals replay ``cbr_chunks`` timestamps through the engine's
    ``schedule_call_at``, one heap entry live at a time: the packet sent
    at ``t`` is built and handed to the network's AP-side delivery
    target at ``t + delay`` (nothing can observe it on the wire), then
    the next arrival is armed.  That is a ``PeriodicTimer``'s
    fire-then-re-arm order, so tie-break sequence numbers are consumed
    identically.  :meth:`stop` records an instant instead of cancelling:
    packets sent before it still arrive, and the first one stamped at or
    after it pops inert and ends the chain.
    """

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
        self._dst = station.index
        #: Bound by start(): the network's AP-side delivery target, the
        #: wire delay, the send instants still to come and the next one.
        self._deliver = None
        self._latency_us = 0.0
        self._stamps: Iterator[float] = iter(())
        self._next_us = 0.0
        #: Only packets sent before this arrive: +inf while running, the
        #: stop instant after :meth:`stop`, -inf before :meth:`start`.
        self._stop_at = -math.inf
        self._schedule_at = sim.schedule_call_at

    @property
    def tx_packets(self) -> int:
        """Packets that have left the wire so far (each bumps the seq)."""
        return self._seq

    def start(self, delay_us: float = 0.0) -> "UdpDownloadFlow":
        network = self.server.network
        if network is None:
            raise RuntimeError("server not attached to a network")
        # The timestamps a PeriodicTimer with the same first delay and
        # interval would walk (left-fold float adds), in chunks.
        self._deliver = network._deliver_down
        self._latency_us = network.delay_us
        self._stamps = chain.from_iterable(
            cbr_chunks(self.sim.now + delay_us, self.interval_us))
        self._next_us = next(self._stamps)
        self._stop_at = math.inf
        self._schedule_at(self._next_us + self._latency_us, self._fire)
        return self

    def stop(self) -> None:
        """Send nothing more; packets already on the wire still arrive."""
        self._stop_at = min(self._stop_at, self.sim.now)

    def _fire(self) -> None:
        sent_us = self._next_us
        if sent_us >= self._stop_at:
            return
        seq = self._seq + 1
        self._seq = seq
        # Positional Packet call (dst_station, src_station, ac, proto,
        # seq, created_us): one packet per arrival makes the keyword
        # binding overhead measurable.
        self._deliver(Packet(
            self.flow_id, self.packet_size,
            self._dst, None, self.ac, "udp", seq, sent_us,
        ))
        self._next_us = next_us = next(self._stamps)
        self._schedule_at(next_us + self._latency_us, self._fire)
