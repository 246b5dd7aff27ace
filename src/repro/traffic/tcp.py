"""TCP bulk transport: congestion-controlled flows with SACK recovery.

The paper's TCP experiments exercise the *feedback loop* between TCP and
the AP's queues: with a deep FIFO the congestion window grows until the
queue overflows (bufferbloat, hundreds of ms of delay); with CoDel the
window is held near the path BDP.  Reproducing that loop needs a real
window-based sender, not a fluid model, so this module implements:

* slow start and two congestion-avoidance laws — ``reno`` (AIMD 0.5/1)
  and ``cubic`` (the Linux default the paper's testbed ran:
  multiplicative decrease 0.7, cubic window regrowth) — selectable per
  connection;
* SACK-based loss recovery with RFC 6675-style pipe accounting — without
  SACK, the burst losses a tail-drop FIFO inflicts on CUBIC-sized windows
  take one RTT *per lost segment* to repair and throughput collapses,
  which the real testbed (SACK on) does not suffer;
* retransmission timeout with exponential backoff and go-back-N;
* RTT estimation (Karn's rule) driving the RTO;
* a receiver with cumulative + delayed acks (1 per 2 segments, 40 ms
  cap), out-of-order buffering, and SACK range reporting.

Connections run in either direction over the WiFi hop: downloads send
data server->station with acks returning over the station's uplink
(contending for airtime — the effect Figure 6's bidirectional case
measures); uploads are the mirror image.
"""

from __future__ import annotations

import bisect
from typing import Callable, List, Optional, Tuple

from repro.core.packet import AccessCategory, Packet, flow_id_allocator
from repro.mac.station import ClientStation
from repro.net.wire import Server
from repro.sim.engine import Simulator, Timer
from repro.traffic.udp import WindowBytes

__all__ = ["TcpConnection", "TCP_MSS", "TCP_SEGMENT_BYTES", "TCP_ACK_BYTES"]

#: Maximum segment size (payload bytes per data packet).
TCP_MSS = 1448
#: Wire size of a full data segment (MSS + TCP/IP headers).
TCP_SEGMENT_BYTES = 1500
#: Wire size of a pure ack.
TCP_ACK_BYTES = 66

#: Initial congestion window in segments (Linux default).
INITIAL_CWND = 10.0
#: Minimum RTO (Linux: 200 ms).
MIN_RTO_US = 200_000.0
MAX_RTO_US = 60_000_000.0
#: Delayed-ack: ack every second segment, or after this timeout.
DELACK_TIMEOUT_US = 40_000.0
DUPACK_THRESHOLD = 3
#: SACK ranges carried per ack (real TCP fits ~3 in the options space).
MAX_SACK_RANGES = 3

#: CUBIC constants (RFC 8312): scaling factor C and decrease factor beta.
CUBIC_C = 0.4
CUBIC_BETA = 0.7

SackRanges = Tuple[Tuple[int, int], ...]


class _Receiver(WindowBytes):
    """Receiver half: cumulative acks, delayed acks, SACK reporting.

    Out-of-order data is kept as a sorted list of disjoint ``[start, end)``
    ranges; the most recent ranges ride back to the sender on every ack.
    """

    def __init__(
        self,
        sim: Simulator,
        send_ack: Callable[[int, SackRanges], None],
    ) -> None:
        super().__init__(sim)
        self._send_ack = send_ack
        self.rcv_nxt = 0
        self._ooo: List[List[int]] = []  # sorted disjoint [start, end)
        self._pending_acks = 0
        self._delack = Timer(sim, self._delack_fire)
        self.rx_bytes = 0

    # ------------------------------------------------------------------
    def on_data(self, pkt: Packet) -> None:
        """Handle one data segment (the flow's receive handler)."""
        seq = pkt.seq
        rcv_nxt = self.rcv_nxt
        if seq == rcv_nxt:
            ooo = self._ooo
            filled_gap = bool(ooo)
            rcv_nxt += 1
            size = pkt.size
            # Pull any now-contiguous out-of-order data.
            if ooo and ooo[0][0] == rcv_nxt:
                start, rcv_nxt = ooo.pop(0)
                size += TCP_SEGMENT_BYTES * (rcv_nxt - start)
            self.rcv_nxt = rcv_nxt
            self.rx_bytes += size
            self._window_bytes += size
            self._pending_acks += 1
            # RFC 5681: ack immediately when the segment fills (part of)
            # a gap, so the sender's recovery is not delayed.
            if self._pending_acks >= 2 or filled_gap:
                self._ack_now()
            elif self._delack.when is None:
                self._delack.arm(DELACK_TIMEOUT_US)
        elif seq > rcv_nxt:
            self._insert_ooo(seq)
            self._ack_now()  # dupack signalling the gap (with SACK info)
        else:
            self._ack_now()  # stale duplicate

    def _insert_ooo(self, seq: int) -> None:
        ranges = self._ooo
        for i, rng in enumerate(ranges):
            start, end = rng
            if start <= seq < end:
                return  # duplicate of buffered data
            if seq == end:
                rng[1] = end + 1
                if i + 1 < len(ranges) and ranges[i + 1][0] == rng[1]:
                    rng[1] = ranges[i + 1][1]
                    del ranges[i + 1]
                return
            if seq + 1 == start:
                rng[0] = seq
                return
            if seq < start:
                ranges.insert(i, [seq, seq + 1])
                return
        ranges.append([seq, seq + 1])

    def _sack_ranges(self) -> SackRanges:
        # Report the highest ranges (closest to the frontier of loss).
        return tuple(map(tuple, self._ooo[-MAX_SACK_RANGES:]))

    def _ack_now(self) -> None:
        self._pending_acks = 0
        if self._delack.when is not None:
            self._delack.cancel()
        # Fast path: in-order data (almost every ack) reports no SACK.
        self._send_ack(self.rcv_nxt, self._sack_ranges() if self._ooo else ())

    def _delack_fire(self) -> None:
        if self._pending_acks > 0:
            self._ack_now()


class _Sender:
    """Sender half: window management, SACK recovery, RTT/RTO."""

    def __init__(
        self,
        sim: Simulator,
        send_segment: Callable[[int], None],
        total_segments: Optional[int],
        cc: str = "cubic",
    ) -> None:
        if cc not in ("reno", "cubic"):
            raise ValueError("cc must be 'reno' or 'cubic'")
        self.sim = sim
        self._send_segment = send_segment
        self.total_segments = total_segments  # None = unbounded bulk
        self.cc = cc

        self.cwnd = INITIAL_CWND
        self.ssthresh = float("inf")
        self.snd_una = 0
        self.snd_nxt = 0
        self._dupacks = 0
        self._in_recovery = False
        self._recover = 0

        # SACK scoreboard: segments in [snd_una, snd_nxt) known received,
        # plus the segments retransmitted during the current recovery.
        # ``_sack_floor`` bounds ``_sacked`` from below (the last
        # cumulative ack, or the lowest seq added since), so a new ack
        # prunes ``range(floor, ack)`` instead of rebuilding the set.
        self._sacked: set[int] = set()
        self._sack_floor = 0
        self._rtx_done: set[int] = set()
        self._rtx_out = 0

        # CUBIC epoch state.
        self._w_max = 0.0
        self._cubic_k = 0.0
        self._epoch_start_us: Optional[float] = None

        self.srtt_us: Optional[float] = None
        self.rttvar_us = 0.0
        self.rto_us = 1_000_000.0
        self._rto = Timer(sim, self._on_rto)
        self._rtt_seq: Optional[int] = None
        self._rtt_sent_us = 0.0

        self.retransmits = 0
        self.timeouts = 0
        self.completion_callbacks: list[Callable[[], None]] = []
        self._completed = False

    # ------------------------------------------------------------------
    @property
    def acked_segments(self) -> int:
        return self.snd_una

    def add_segments(self, count: int) -> None:
        """Extend a finite transfer (web connections reuse the flow)."""
        if self.total_segments is None:
            raise ValueError("cannot extend an unbounded transfer")
        self.total_segments += count
        self._completed = False
        self.try_send()

    def on_complete(self, callback: Callable[[], None]) -> None:
        self.completion_callbacks.append(callback)

    # ------------------------------------------------------------------
    def try_send(self) -> None:
        """Transmit while the window allows and data remains."""
        if self._in_recovery:
            self._recovery_send()
        else:
            seq = self.snd_nxt
            limit = self.snd_una + int(self.cwnd)
            total = self.total_segments
            if total is not None and total < limit:
                limit = total
            if seq < limit:
                # Fresh data only: the first segment may start an RTT
                # sample, and nothing here is a retransmission.
                if self._rtt_seq is None:
                    self._rtt_seq = seq
                    self._rtt_sent_us = self.sim.now
                send = self._send_segment
                while seq < limit:
                    send(seq)
                    seq += 1
                self.snd_nxt = seq
        # The RTO runs while data is outstanding (armed once, not re-armed).
        rto = self._rto
        if self.snd_nxt > self.snd_una:
            if rto.when is None:
                rto.arm(self.rto_us)
        elif rto.when is not None:
            rto.cancel()

    def _pipe(self) -> int:
        """RFC 6675 pipe estimate: data outstanding in the network."""
        outstanding = self.snd_nxt - self.snd_una
        return outstanding - len(self._sacked) + self._rtx_out

    def _recovery_send(self) -> None:
        """Retransmit lost holes, then new data, up to cwnd worth of pipe.

        A hole only counts as *lost* (RFC 6675 ``IsLost``) when at least
        DupThresh SACKed segments lie above it; anything else is merely
        still in flight.  Without this rule every in-flight segment in
        the window would be retransmitted on entering recovery.
        """
        sacked_sorted = sorted(self._sacked)

        def n_sacked_above(seq: int) -> int:
            return len(sacked_sorted) - bisect.bisect_right(sacked_sorted, seq)

        scan = self.snd_una
        holes_exhausted = False
        while self._pipe() < int(self.cwnd):
            hole = None
            if not holes_exhausted:
                while scan < self._recover:
                    if scan not in self._sacked and scan not in self._rtx_done:
                        break
                    scan += 1
                if scan < self._recover and n_sacked_above(scan) >= DUPACK_THRESHOLD:
                    hole = scan
                else:
                    # n_sacked_above is non-increasing in seq: no later
                    # hole can qualify either.
                    holes_exhausted = True
            if hole is not None:
                self._transmit(hole, fresh=False)
                self._rtx_done.add(hole)
                self._rtx_out += 1
                scan = hole + 1
            elif (self.total_segments is None
                  or self.snd_nxt < self.total_segments):
                self._transmit(self.snd_nxt, fresh=True)
                self.snd_nxt += 1
            else:
                break

    def _transmit(self, seq: int, fresh: bool) -> None:
        if fresh and self._rtt_seq is None:
            self._rtt_seq = seq
            self._rtt_sent_us = self.sim.now
        if not fresh:
            self.retransmits += 1
            if self._rtt_seq is not None and seq <= self._rtt_seq:
                self._rtt_seq = None  # Karn: never sample retransmitted data
        self._send_segment(seq)

    # ------------------------------------------------------------------
    def on_ack(self, ack: int, sack: SackRanges = ()) -> None:
        """Process cumulative ack ``ack`` carrying SACK blocks ``sack``.

        The same as receiving the ack packet (:meth:`on_ack_packet`).
        """
        self.on_ack_packet(Packet(
            0, TCP_ACK_BYTES, None, None, AccessCategory.BE, "tcp-ack", ack,
            self.sim.now, {"sack": sack} if sack else None,
        ))

    def on_ack_packet(self, pkt: Packet) -> None:
        """Handle one ack packet (the flow's sender-side handler)."""
        ack = pkt.seq
        if pkt.meta is not None:
            self._process_sack(ack, pkt.meta["sack"])
        snd_una = self.snd_una
        if ack > snd_una:
            self._on_new_ack(ack)
        elif ack == snd_una and self.snd_nxt > snd_una:
            self._on_dupack()
        self.try_send()
        if self.total_segments is not None:
            self._check_complete()

    def _process_sack(self, ack: int, sack: SackRanges) -> None:
        sacked = self._sacked
        floor = self._sack_floor
        for start, end in sack:
            if start < ack:
                start = ack
            if start < end:
                sacked.update(range(start, end))
                if start < floor:
                    floor = start  # a stale ack can sack below snd_una
        self._sack_floor = floor

    def _on_new_ack(self, ack: int) -> None:
        snd_una = self.snd_una
        newly_acked = ack - snd_una
        self.snd_una = ack
        if self._sacked and self._sack_floor < ack:
            self._sacked.difference_update(range(self._sack_floor, ack))
        self._sack_floor = ack
        if self._rtx_done:
            # Retransmitted holes all lie at or above the old snd_una.
            self._rtx_done.difference_update(range(snd_una, ack))
        self._rtx_out = max(0, self._rtx_out - newly_acked)

        if self._rtt_seq is not None and ack > self._rtt_seq:
            self._rtt_sample(self.sim.now - self._rtt_sent_us)
            self._rtt_seq = None

        if self._in_recovery:
            if ack >= self._recover:
                self.cwnd = self.ssthresh
                self._in_recovery = False
                self._dupacks = 0
                self._rtx_done.clear()
                self._rtx_out = 0
        else:
            self._dupacks = 0
            if self.cwnd < self.ssthresh:
                self.cwnd += newly_acked  # slow start
            else:
                self._avoidance_growth(newly_acked)
        # New data acked: restart the RTO, or stop it if nothing is left.
        if self.snd_nxt > ack:
            self._rto.arm(self.rto_us)
        elif self._rto.when is not None:
            self._rto.cancel()

    def _on_dupack(self) -> None:
        self._dupacks += 1
        if self._in_recovery:
            return
        if self._dupacks >= DUPACK_THRESHOLD or len(self._sacked) >= DUPACK_THRESHOLD:
            self._enter_recovery()

    def _enter_recovery(self) -> None:
        self.ssthresh = self._multiplicative_decrease()
        self.cwnd = self.ssthresh
        self._recover = self.snd_nxt
        self._in_recovery = True
        self._rtx_done.clear()
        self._rtx_out = 0

    # ------------------------------------------------------------------
    # Congestion-avoidance laws
    # ------------------------------------------------------------------
    def _avoidance_growth(self, newly_acked: int) -> None:
        if self.cc == "reno":
            self.cwnd += newly_acked / self.cwnd
            return
        # CUBIC: grow toward W(t) = C (t - K)^3 + w_max.
        if self._epoch_start_us is None:
            self._epoch_start_us = self.sim.now
            if self._w_max < self.cwnd:
                self._w_max = self.cwnd
                self._cubic_k = 0.0
        t = (self.sim.now - self._epoch_start_us) / 1e6
        target = CUBIC_C * (t - self._cubic_k) ** 3 + self._w_max
        if target > self.cwnd:
            self.cwnd += newly_acked * (target - self.cwnd) / self.cwnd
        else:
            # Below the curve: probe slowly so the flow never stalls.
            self.cwnd += newly_acked * 0.01 / self.cwnd

    def _multiplicative_decrease(self) -> float:
        """Window reduction on a congestion event; returns new ssthresh."""
        if self.cc == "reno":
            return max(self.cwnd / 2.0, 2.0)
        self._w_max = self.cwnd
        self._cubic_k = (self._w_max * (1 - CUBIC_BETA) / CUBIC_C) ** (1 / 3)
        self._epoch_start_us = self.sim.now
        return max(self.cwnd * CUBIC_BETA, 2.0)

    # ------------------------------------------------------------------
    # RTT estimation and timeouts
    # ------------------------------------------------------------------
    def _rtt_sample(self, rtt_us: float) -> None:
        if self.srtt_us is None:
            self.srtt_us = rtt_us
            self.rttvar_us = rtt_us / 2.0
        else:
            self.rttvar_us = 0.75 * self.rttvar_us + 0.25 * abs(
                self.srtt_us - rtt_us
            )
            self.srtt_us = 0.875 * self.srtt_us + 0.125 * rtt_us
        self.rto_us = min(
            MAX_RTO_US, max(MIN_RTO_US, self.srtt_us + 4 * self.rttvar_us)
        )

    def _on_rto(self) -> None:
        if self.snd_nxt <= self.snd_una:
            return
        self.timeouts += 1
        self.ssthresh = self._multiplicative_decrease()
        self.cwnd = 1.0
        self._dupacks = 0
        self._in_recovery = False
        self._sacked.clear()
        self._rtx_done.clear()
        self._rtx_out = 0
        self.rto_us = min(MAX_RTO_US, self.rto_us * 2)  # exponential backoff
        self.snd_nxt = self.snd_una  # go-back-N
        self._rtt_seq = None
        self.try_send()

    def _check_complete(self) -> None:
        if (
            not self._completed
            and self.total_segments is not None
            and self.snd_una >= self.total_segments
        ):
            self._completed = True
            for callback in list(self.completion_callbacks):
                callback()


class TcpConnection:
    """One TCP flow across the WiFi hop.

    Parameters
    ----------
    direction:
        'down' — server sends data to the station (acks ride the uplink);
        'up' — the station sends data to the server.
    total_bytes:
        Transfer size; ``None`` is an unbounded bulk flow.
    ac:
        802.11e access category of the *data* packets (acks use the same).
    cc:
        Congestion control: 'cubic' (default, as on the testbed) or 'reno'.
    """

    def __init__(
        self,
        sim: Simulator,
        server: Server,
        station: ClientStation,
        direction: str = "down",
        total_bytes: Optional[int] = None,
        ac: AccessCategory = AccessCategory.BE,
        cc: str = "cubic",
    ) -> None:
        if direction not in ("down", "up"):
            raise ValueError("direction must be 'down' or 'up'")
        self.sim = sim
        self.server = server
        self.station = station
        self.direction = direction
        self.ac = ac
        self.flow_id = flow_id_allocator()

        total_segments = (
            None
            if total_bytes is None
            else max(1, -(-total_bytes // TCP_MSS))
        )
        # Data and acks leave through the endpoint they start from; the
        # packet that crosses the wireless hop downstream names its station.
        if direction == "down":
            self._data_out, self._data_dst = server.send, station.index
            self._ack_out, self._ack_dst = station.send, None
        else:
            self._data_out, self._data_dst = station.send, None
            self._ack_out, self._ack_dst = server.send, station.index
        self.sender = _Sender(sim, self._send_data_segment, total_segments, cc=cc)
        self.receiver = _Receiver(sim, self._send_ack)

        if direction == "down":
            # Data arrives at the station; acks arrive at the server.
            station.register_handler(self.flow_id, self.receiver.on_data)
            server.register_handler(self.flow_id, self.sender.on_ack_packet)
        else:
            server.register_handler(self.flow_id, self.receiver.on_data)
            station.register_handler(self.flow_id, self.sender.on_ack_packet)

    # ------------------------------------------------------------------
    def start(self, delay_us: float = 0.0) -> "TcpConnection":
        if delay_us > 0:
            self.sim.schedule(delay_us, self.sender.try_send)
        else:
            self.sender.try_send()
        return self

    def close(self) -> None:
        """Release a finished flow: endpoints drop its packets."""
        self.server.unregister_handler(self.flow_id)
        self.station.unregister_handler(self.flow_id)
        self.receiver.leave_window()

    # ------------------------------------------------------------------
    # Positional Packet calls (dst_station, src_station, ac, proto, seq,
    # created_us, meta): one per segment and one per ack.
    def _send_data_segment(self, seq: int) -> None:
        self._data_out(Packet(self.flow_id, TCP_SEGMENT_BYTES, self._data_dst,
                              None, self.ac, "tcp", seq, self.sim.now))

    def _send_ack(self, ack_seq: int, sack: SackRanges) -> None:
        self._ack_out(Packet(self.flow_id, TCP_ACK_BYTES, self._ack_dst, None,
                             self.ac, "tcp-ack", ack_seq, self.sim.now,
                             {"sack": sack} if sack else None))

    # ------------------------------------------------------------------
    # Measurement passthroughs
    # ------------------------------------------------------------------
    def window_throughput_bps(self, end_us: Optional[float] = None) -> float:
        return self.receiver.window_throughput_bps(end_us)

    @property
    def delivered_bytes(self) -> int:
        return self.receiver.rx_bytes
