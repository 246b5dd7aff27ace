"""Packet-lifecycle span stitching, in-run from taps or from a trace file.

A *span* is the causal history of one downlink packet, stitched together
from the flat records the TraceBus emits: enqueue into the qdisc or
the integrated MAC structure, per-layer dequeues, membership in a built
aggregate, hardware-queue push/pop, and finally TX completion (or a drop
at any stage).  The join keys are the packet id (``pid``, carried by
queue/driver/drop records) and the aggregate sequence number (``agg``,
carried by agg/hw/tx records; the ``built`` record lists the pids each
aggregate contains, tying the two keyspaces together).

Segment accounting telescopes: every checkpoint closes the segment the
packet was waiting in, so the per-segment times of a closed span sum to
``t_end - t_start`` *exactly* (same floats, same order — no re-derived
arithmetic), which is what lets tests assert attribution against the
end-to-end sojourn to float precision.

Segments (a scheme uses the subset its stack has):

``qdisc``     sojourn in the qdisc (FIFO / FQ-CoDel schemes)
``driver``    wait in the legacy driver's per-TID FIFO
``mac``       sojourn in the integrated MAC structure or the VO queue
``assembly``  dequeued by the aggregate builder but not yet in a built
              aggregate (holdback wait)
``hw``        built aggregate sitting in the hardware queue
``air``       first hardware pop to final TX completion — transmission
              time plus contention plus every retry

Everything is **streamed**: state is kept only for packets whose span
is still open.  A live run stitches as it emits —
:meth:`SpanCollector.register` taps the bus, so the trace is never
decoded (or even retained) for spans — and :func:`iter_spans` consumes
any record iterable (e.g. :func:`iter_trace_file`, which reads line by
line) through the same handlers, so multi-GB traces never load into
memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
)

from repro.telemetry.trace import TapConsumer, iter_trace_file

__all__ = [
    "SEGMENTS",
    "REQUIRED_CATEGORIES",
    "Span",
    "SpanCollector",
    "iter_spans",
    "iter_trace_file",
    "collect_spans",
]

#: Canonical segment order (waterfall columns).
SEGMENTS = ("qdisc", "driver", "mac", "assembly", "hw", "air")

#: Trace categories span reconstruction joins over.  Traces recorded with
#: a category filter that excludes any of these cannot be stitched.
REQUIRED_CATEGORIES = ("queue", "agg", "hw", "driver")


@dataclass(slots=True)
class Span:
    """The reconstructed lifecycle of one downlink packet."""

    pid: int
    station: Optional[int] = None
    flow: Optional[int] = None
    t_start: float = 0.0
    t_end: float = 0.0
    #: 'delivered', 'dropped', or 'open' (resident at end of trace).
    outcome: str = "open"
    #: Segment name -> time spent waiting in it (µs); telescoping.
    segments: Dict[str, float] = field(default_factory=dict)
    #: Stage the packet is currently waiting in (open spans) or was
    #: waiting in when it closed.
    stage: str = "qdisc"
    #: Aggregate sequence the packet was transmitted in (if it got there).
    agg_seq: Optional[int] = None
    drop_layer: Optional[str] = None
    drop_reason: Optional[str] = None
    #: True when the span *closed* inside the measurement window — i.e.
    #: its latency was experienced during the window (steady state),
    #: even if the packet was enqueued during warm-up.
    in_window: bool = False

    @property
    def total_us(self) -> float:
        return self.t_end - self.t_start

    def _advance(self, stage: str, t: float) -> None:
        """Close the current waiting segment at ``t``; wait in ``stage``."""
        elapsed = t - self.t_end
        if elapsed:
            self.segments[self.stage] = (
                self.segments.get(self.stage, 0.0) + elapsed
            )
        self.t_end = t
        self.stage = stage

    def _close(self, t: float, outcome: str) -> None:
        self._advance(self.stage, t)
        self.outcome = outcome


class SpanCollector(TapConsumer):
    """Streaming join: one positional handler per record shape.

    The handlers are the single stitching path, driven by the two
    :class:`~repro.telemetry.trace.TapConsumer` front-ends: ``register``
    taps a bus, so a live run stitches as it emits (``Telemetry`` never
    decodes the ring for spans), and ``feed`` unpacks one decoded dict
    record — a trace file line — into the same call.  Each span goes to
    ``sink`` the moment it closes (usually zero or one per record; a
    successful aggregate TX closes all of its packets at once); without
    a sink they collect in :attr:`closed`.

    ``finish`` returns the still-open spans — packets resident in the
    stack (or on the air) when the trace ended; those are *expected* for
    a mid-run snapshot and are counted separately from ``unmatched``,
    which flags genuine join inconsistencies (a dequeue/built/pop record
    whose pid or aggregate was never seen) and must be zero on any trace
    recorded with the required categories enabled.
    """

    #: The record shapes the join consumes.  Queue bookkeeping records
    #: (flow_new / flow_reclaim / flush) and driver 'pull' batches carry
    #: no pid and are not here.
    TAPS = {
        ("queue", "enqueue"): ("on_enqueue", {
            "pid": None, "station": None, "flow": None, "layer": "qdisc"}),
        ("queue", "dequeue"): ("on_dequeue", {
            "pid": None, "station": None, "layer": "qdisc"}),
        ("queue", "drop"): ("on_drop", {
            "pid": None, "station": None, "flow": None, "layer": None,
            "reason": None}),
        ("driver", "dequeue"): ("on_dequeue", {
            "pid": None, "station": None, "layer": "driver"}),
        ("agg", "built"): ("on_built", {
            "agg": None, "station": None, "pids": ()}),
        ("agg", "tx_done"): ("on_tx_done", {"agg": None, "ok": None}),
        ("hw", "pop"): ("on_pop", {"agg": None}),
        ("meta", "measurement_start"): ("on_marker", {}),
    }

    def __init__(self, sink: Optional[Callable[[Span], None]] = None) -> None:
        self._open: Dict[int, Span] = {}
        #: agg seq -> pids still riding in that aggregate.
        self._aggs: Dict[int, List[int]] = {}
        self.unmatched = 0
        #: Drop records for pids never enqueued (legitimate: detach drops
        #: on entry, uplink client drops) — degenerate zero-length spans.
        self.pre_enqueue_drops = 0
        self.window_start_us: Optional[float] = None
        #: Closed spans nobody took (the default sink).
        self.closed: List[Span] = []
        #: Called with each span as it closes.
        self.sink = sink if sink is not None else self.closed.append

    # ------------------------------------------------------------------
    # Handlers (positional; shared by taps and feed)
    # ------------------------------------------------------------------
    def on_enqueue(self, t: float, pid: int, station: Optional[int],
                   flow: Optional[int], layer: str) -> None:
        if pid in self._open:
            # A pid can never be enqueued twice downlink; treat the
            # earlier span as inconsistent rather than leaking it.
            self.unmatched += 1
        self._open[pid] = Span(
            pid=pid, station=station, flow=flow, t_start=t, t_end=t,
            stage="qdisc" if layer == "qdisc" else "mac",
        )

    def on_dequeue(self, t: float, pid: int, station: Optional[int],
                   layer: str) -> None:
        span = self._open.get(pid)
        if span is None:
            self.unmatched += 1
            return
        if span.station is None:
            # The shared qdisc above the driver is stationless (exactly
            # like Linux's mq root); the driver knows the TID's station.
            span.station = station
        # Legacy path: the qdisc feeds the driver FIFO.  A driver or
        # MAC/VO dequeue feeds the aggregate builder directly.
        span._advance("driver" if layer == "qdisc" else "assembly", t)

    def on_drop(self, t: float, pid: int, station: Optional[int],
                flow: Optional[int], layer: Optional[str],
                reason: Optional[str]) -> None:
        span = self._open.pop(pid, None)
        if span is None:
            # Dropped without ever being enqueued (detached station,
            # uplink client drop): a legitimate zero-length span.
            self.pre_enqueue_drops += 1
            span = Span(pid=pid, station=station, flow=flow,
                        t_start=t, t_end=t, stage="qdisc")
        span.drop_layer = layer
        span.drop_reason = reason
        span._close(t, "dropped")
        span.in_window = self._in_window(t)
        self._forget_agg_member(span)
        self.sink(span)

    def on_built(self, t: float, seq: int, station: Optional[int],
                 pids: Iterable[int]) -> None:
        members: List[int] = []
        for pid in pids:
            span = self._open.get(pid)
            if span is None:
                self.unmatched += 1
                continue
            if span.station is None:
                span.station = station
            span._advance("hw", t)
            span.agg_seq = seq
            members.append(pid)
        if members:
            self._aggs[seq] = members

    def on_tx_done(self, t: float, seq: int, ok: bool) -> None:
        if not ok:
            return
        in_window = self._in_window(t)
        for pid in self._aggs.pop(seq, ()):  # unknown seq: uplink/VO
            span = self._open.pop(pid, None)
            if span is None:
                continue  # already closed by a drop record
            span._close(t, "delivered")
            span.in_window = in_window
            self.sink(span)

    def on_pop(self, t: float, seq: int) -> None:
        for pid in self._aggs.get(seq, ()):
            span = self._open.get(pid)
            if span is not None and span.stage == "hw":
                # Only the first pop moves the packet onto the air; retry
                # pops find it already in the 'air' stage.
                span._advance("air", t)

    def on_marker(self, t: float) -> None:
        self.window_start_us = t

    def _forget_agg_member(self, span: Span) -> None:
        if span.agg_seq is None:
            return
        members = self._aggs.get(span.agg_seq)
        if members is not None:
            try:
                members.remove(span.pid)
            except ValueError:
                pass
            if not members:
                del self._aggs[span.agg_seq]

    def _in_window(self, t: float) -> bool:
        return self.window_start_us is not None and t >= self.window_start_us

    # ------------------------------------------------------------------
    def finish(self, t_end: Optional[float] = None) -> List[Span]:
        """Flush still-open spans (resident packets), in pid order."""
        residual = []
        for pid in sorted(self._open):
            span = self._open[pid]
            if t_end is not None:
                span._advance(span.stage, t_end)
            span.outcome = "open"
            residual.append(span)
        self._open.clear()
        self._aggs.clear()
        return residual

    @property
    def open_count(self) -> int:
        return len(self._open)


# ----------------------------------------------------------------------
# Streaming front-ends
# ----------------------------------------------------------------------
def iter_spans(
    records: Iterable[Mapping[str, Any]],
    collector: Optional[SpanCollector] = None,
) -> Iterator[Span]:
    """Reconstruct spans from a record stream, yielding them as they
    close; still-open (residual) spans are yielded last with outcome
    ``'open'``.  Pass your own ``collector`` to inspect ``unmatched`` /
    ``pre_enqueue_drops`` afterwards.
    """
    collector = collector if collector is not None else SpanCollector()
    closed = collector.closed
    t_last: Optional[float] = None
    for record in records:
        t_last = record["t"]
        collector.feed(record)
        if closed:
            yield from closed
            closed.clear()
    yield from collector.finish(t_last)


def collect_spans(
    records: Iterable[Mapping[str, Any]],
) -> tuple[List[Span], SpanCollector]:
    """Non-streaming convenience: all spans plus the collector state."""
    collector = SpanCollector()
    spans = list(iter_spans(records, collector))
    return spans, collector
