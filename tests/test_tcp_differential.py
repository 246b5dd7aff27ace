"""Differential test: the TCP fast path against the code it replaced.

``RefSender`` / ``RefReceiver`` below are the sender and receiver as they
were before the per-segment path was folded: the SACK scoreboard adds one
seq at a time and is rebuilt by a comprehension on every new ack, the RTO
is an Event cancelled and rescheduled on every new ack, and the delayed
ack is an Event armed and cancelled every other segment.  They run on
:class:`tests.reference_engine.EagerSimulator`; the real classes run on
:class:`repro.sim.engine.Simulator`, with the sender and receiver of
each side sharing one simulator.  Hypothesis drives both with the same
data arrivals, acks, dupacks, SACK blocks (stale acks below ``snd_una``
included) and clock advances that expire RTOs and delayed acks, and
every observable must match after every step: segments sent and acks
emitted (with their times), the window and RTO state, the scoreboard,
events run and tie-break seqs consumed.
"""

from __future__ import annotations

import bisect
from typing import Callable, List, Optional

from hypothesis import given, settings, strategies as st

from repro.core.packet import Packet
from repro.sim.engine import Simulator
from repro.traffic.tcp import (
    CUBIC_BETA,
    CUBIC_C,
    DELACK_TIMEOUT_US,
    DUPACK_THRESHOLD,
    INITIAL_CWND,
    MAX_RTO_US,
    MAX_SACK_RANGES,
    MIN_RTO_US,
    TCP_SEGMENT_BYTES,
    SackRanges,
    _Receiver,
    _Sender,
)
from tests.reference_engine import EagerSimulator, Event


class RefReceiver:
    """The receiver before the fold: a ``_deliver`` frame, Event timers."""

    def __init__(
        self,
        sim: EagerSimulator,
        send_ack: Callable[[int, SackRanges], None],
    ) -> None:
        self.sim = sim
        self._send_ack = send_ack
        self.rcv_nxt = 0
        self._ooo: List[List[int]] = []  # sorted disjoint [start, end)
        self._pending_acks = 0
        self._delack_event: Optional[Event] = None
        self.rx_bytes = 0
        self._window_bytes = 0
        self._window_start_us = 0.0

    # ------------------------------------------------------------------
    def on_data(self, pkt: Packet) -> None:
        seq = pkt.seq
        if seq == self.rcv_nxt:
            filled_gap = bool(self._ooo)
            self.rcv_nxt += 1
            self._deliver(pkt.size)
            # Pull any now-contiguous out-of-order data.
            if self._ooo and self._ooo[0][0] == self.rcv_nxt:
                start, end = self._ooo.pop(0)
                self._deliver(TCP_SEGMENT_BYTES * (end - start))
                self.rcv_nxt = end
            self._pending_acks += 1
            # RFC 5681: ack immediately when the segment fills (part of)
            # a gap, so the sender's recovery is not delayed.
            if self._pending_acks >= 2 or filled_gap:
                self._ack_now()
            else:
                self._arm_delack()
        elif seq > self.rcv_nxt:
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

    def _deliver(self, size: int) -> None:
        self.rx_bytes += size
        self._window_bytes += size

    def _sack_ranges(self) -> SackRanges:
        # Report the highest ranges (closest to the frontier of loss).
        tail = self._ooo[-MAX_SACK_RANGES:]
        return tuple((start, end) for start, end in tail)

    def _ack_now(self) -> None:
        self._pending_acks = 0
        if self._delack_event is not None:
            self._delack_event.cancel()
            self._delack_event = None
        self._send_ack(self.rcv_nxt, self._sack_ranges())

    def _arm_delack(self) -> None:
        if self._delack_event is None:
            self._delack_event = self.sim.schedule(
                DELACK_TIMEOUT_US, self._delack_fire
            )

    def _delack_fire(self) -> None:
        self._delack_event = None
        if self._pending_acks > 0:
            self._ack_now()


class RefSender:
    """The sender before the fold: per-seq SACK adds, comprehension
    pruning, an Event RTO cancelled and rescheduled on every new ack."""

    def __init__(
        self,
        sim: EagerSimulator,
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
        self._sacked: set[int] = set()
        self._rtx_done: set[int] = set()
        self._rtx_out = 0

        # CUBIC epoch state.
        self._w_max = 0.0
        self._cubic_k = 0.0
        self._epoch_start_us: Optional[float] = None

        self.srtt_us: Optional[float] = None
        self.rttvar_us = 0.0
        self.rto_us = 1_000_000.0
        self._rto_event: Optional[Event] = None
        self._rtt_seq: Optional[int] = None
        self._rtt_sent_us = 0.0

        self.retransmits = 0
        self.timeouts = 0
        self.completion_callbacks: list[Callable[[], None]] = []
        self._completed = False

    # ------------------------------------------------------------------
    def try_send(self) -> None:
        """Transmit while the window allows and data remains."""
        if self._in_recovery:
            self._recovery_send()
        else:
            while self.snd_nxt < self.snd_una + int(self.cwnd):
                if not self._has_data(self.snd_nxt):
                    break
                self._transmit(self.snd_nxt, fresh=True)
                self.snd_nxt += 1
        self._manage_rto_timer()

    def _has_data(self, seq: int) -> bool:
        return self.total_segments is None or seq < self.total_segments

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
            elif self._has_data(self.snd_nxt):
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
        self._process_sack(ack, sack)
        if ack > self.snd_una:
            self._on_new_ack(ack)
        elif ack == self.snd_una and self.snd_nxt > self.snd_una:
            self._on_dupack()
        self.try_send()
        self._check_complete()

    def _process_sack(self, ack: int, sack: SackRanges) -> None:
        for start, end in sack:
            for seq in range(max(start, ack), end):
                self._sacked.add(seq)

    def _on_new_ack(self, ack: int) -> None:
        newly_acked = ack - self.snd_una
        self.snd_una = ack
        if self._sacked:
            self._sacked = {s for s in self._sacked if s >= ack}
        if self._rtx_done:
            self._rtx_done = {s for s in self._rtx_done if s >= ack}
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
            self._manage_rto_timer(rearm=True)
            return

        self._dupacks = 0
        if self.cwnd < self.ssthresh:
            self.cwnd += newly_acked  # slow start
        else:
            self._avoidance_growth(newly_acked)
        self._manage_rto_timer(rearm=True)

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

    def _manage_rto_timer(self, rearm: bool = False) -> None:
        outstanding = self.snd_nxt > self.snd_una
        if not outstanding:
            if self._rto_event is not None:
                self._rto_event.cancel()
                self._rto_event = None
            return
        if rearm and self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None
        if self._rto_event is None:
            self._rto_event = self.sim.schedule(self.rto_us, self._on_rto)

    def _on_rto(self) -> None:
        self._rto_event = None
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


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
class Side:
    """One implementation: a sender and a receiver on one simulator."""

    def __init__(self, sim, sender_cls, receiver_cls, total, cc) -> None:
        self.sim = sim
        self.sent: list = []
        self.acks: list = []
        self.completed: list = []
        self.sender = sender_cls(
            sim, lambda seq: self.sent.append((sim.now, seq)), total, cc=cc)
        self.sender.completion_callbacks.append(
            lambda: self.completed.append(sim.now))
        self.receiver = receiver_cls(
            sim, lambda ack, sack: self.acks.append((sim.now, ack, sack)))

    def state(self) -> tuple:
        s = self.sender
        return (
            self.sim.now, self.sent, self.acks, self.completed,
            s.cwnd, s.ssthresh, s.snd_una, s.snd_nxt, s.retransmits,
            s.timeouts, s.rto_us, s._in_recovery, sorted(s._sacked),
            sorted(s._rtx_done), self.receiver.rcv_nxt,
            self.receiver.rx_bytes, self.sim.events_processed,
            repr(self.sim._seq),
        )


#: Clock steps: delayed-ack and RTO scales, and zero for same-time ops.
_STEPS_US = [0.0, 1_000.0, 40_000.0, 160_000.0, 200_000.0, 1_000_000.0,
             2_500_000.0]


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       total=st.one_of(st.none(), st.integers(1, 40)),
       cc=st.sampled_from(["reno", "cubic"]))
def test_tcp_matches_the_reference(data, total, cc):
    new = Side(Simulator(), _Sender, _Receiver, total, cc)
    ref = Side(EagerSimulator(), RefSender, RefReceiver, total, cc)
    sides = (new, ref)
    for side in sides:
        side.sender.try_send()
    assert new.state() == ref.state()
    for _ in range(data.draw(st.integers(1, 60), label="steps")):
        kind = data.draw(st.sampled_from(["data", "ack", "ack", "advance"]))
        if kind == "data":
            seq = max(0, new.receiver.rcv_nxt + data.draw(st.integers(-2, 6)))
            for side in sides:
                side.receiver.on_data(Packet(1, TCP_SEGMENT_BYTES, seq=seq))
        elif kind == "ack":
            # Below snd_una is a stale ack; equal to it, a dupack.
            ack = max(0, new.sender.snd_una + data.draw(st.integers(-4, 12)))
            blocks = data.draw(st.lists(
                st.tuples(st.integers(-6, 14), st.integers(1, 5)),
                max_size=MAX_SACK_RANGES))
            sack = tuple((ack + off, ack + off + n) for off, n in blocks)
            for side in sides:
                side.sender.on_ack(ack, sack)
        else:
            until = new.sim.now + data.draw(st.sampled_from(_STEPS_US))
            for side in sides:
                side.sim.run(until_us=until)
        assert new.state() == ref.state()
