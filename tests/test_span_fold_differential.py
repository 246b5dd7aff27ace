"""The batched span join and fold beside the per-span formulation.

``SpanCollector`` hands its sink one batch per closing record, and
``Attribution.fold`` / ``SegmentStats.observe_many`` fold a batch at
once.  The reference below is the plain formulation they replaced: a
join that advances each span through ``_advance`` / ``_close`` and
hands spans over one at a time, and an ``observe`` per span and per
value with ``floor``-based bins.  Under Hypothesis both consume the same
record streams — the qdisc → driver and integrated-MAC downlink paths,
holdback, retried aggregates, members dropped between ``built`` and
``tx_done``, drops before enqueue, no marker or a marker mid-stream,
and roams between BSSes — and must produce equal attributions and the
same closed spans.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.attribution import (
    Attribution,
    SegmentStats,
    attribute_records,
)
from repro.telemetry.spans import SEGMENTS, iter_spans


# ----------------------------------------------------------------------
# The reference: one span at a time
# ----------------------------------------------------------------------
class _RefSpan:
    def __init__(self, pid, station, flow, t, stage):
        self.pid, self.station, self.flow = pid, station, flow
        self.t_start = self.t_end = t
        self.outcome, self.stage = "open", stage
        self.segments: Dict[str, float] = {}
        self.agg_seq = self.drop_layer = self.drop_reason = None
        self.in_window = False

    def advance(self, stage, t):
        elapsed = t - self.t_end
        if elapsed:
            self.segments[self.stage] = (
                self.segments.get(self.stage, 0.0) + elapsed)
        self.t_end = t
        self.stage = stage

    def close(self, t, outcome):
        self.advance(self.stage, t)
        self.outcome = outcome


def _ref_bin(value):
    if value < 1.0:
        return -1
    return int(math.floor(math.log2(value) * 8))


def _ref_observe_value(stats: SegmentStats, value: float) -> None:
    if stats.count == 0 or value < stats.min_us:
        stats.min_us = value
    if value > stats.max_us:
        stats.max_us = value
    stats.count += 1
    stats.total_us += value
    index = _ref_bin(value)
    stats.bins[index] = stats.bins.get(index, 0) + 1


def _ref_observe(result: Attribution, span: _RefSpan) -> None:
    entry = result._station(span.station)
    if span.outcome == "dropped":
        result.dropped += 1
        entry.dropped += 1
        return
    result.delivered += 1
    entry.delivered += 1
    _ref_observe_value(entry.total, span.t_end - span.t_start)
    for name in SEGMENTS:
        value = span.segments.get(name)
        if value is None:
            continue
        stats = entry.segments.get(name)
        if stats is None:
            stats = entry.segments[name] = SegmentStats()
        _ref_observe_value(stats, value)


class _Reference:
    """Per-span join and windowing rule, fed one dict record at a time."""

    def __init__(self):
        self.open: Dict[int, _RefSpan] = {}
        self.aggs: Dict[int, List[int]] = {}
        self.closed: List[_RefSpan] = []
        self.unmatched = self.pre_enqueue_drops = 0
        self.window_start: Optional[float] = None
        self.buffered: List[_RefSpan] = []
        self.result = Attribution()

    def _sink(self, span):
        self.closed.append(span)
        if not self.result.windowed:
            self.buffered.append(span)
        elif span.in_window:
            _ref_observe(self.result, span)

    def _in_window(self, t):
        return self.window_start is not None and t >= self.window_start

    def feed(self, r):
        t, kind = r["t"], (r["cat"], r["ev"])
        if kind == ("queue", "enqueue"):
            if r["pid"] in self.open:
                self.unmatched += 1
            self.open[r["pid"]] = _RefSpan(
                r["pid"], r.get("station"), r.get("flow"), t,
                "qdisc" if r.get("layer", "qdisc") == "qdisc" else "mac")
        elif kind in (("queue", "dequeue"), ("driver", "dequeue")):
            span = self.open.get(r["pid"])
            if span is None:
                self.unmatched += 1
                return
            if span.station is None:
                span.station = r.get("station")
            layer = r.get("layer", "qdisc") if kind[0] == "queue" else "driver"
            span.advance("driver" if layer == "qdisc" else "assembly", t)
        elif kind == ("queue", "drop"):
            span = self.open.pop(r["pid"], None)
            if span is None:
                self.pre_enqueue_drops += 1
                span = _RefSpan(r["pid"], r.get("station"), r.get("flow"),
                                t, "qdisc")
            span.drop_layer, span.drop_reason = r.get("layer"), r.get("reason")
            span.close(t, "dropped")
            span.in_window = self._in_window(t)
            members = self.aggs.get(span.agg_seq)
            if span.agg_seq is not None and members is not None:
                if span.pid in members:
                    members.remove(span.pid)
                if not members:
                    del self.aggs[span.agg_seq]
            self._sink(span)
        elif kind == ("agg", "built"):
            members = []
            for pid in r.get("pids", ()):
                span = self.open.get(pid)
                if span is None:
                    self.unmatched += 1
                    continue
                if span.station is None:
                    span.station = r.get("station")
                span.advance("hw", t)
                span.agg_seq = r["agg"]
                members.append(pid)
            if members:
                self.aggs[r["agg"]] = members
        elif kind == ("hw", "pop"):
            for pid in self.aggs.get(r["agg"], ()):
                span = self.open.get(pid)
                if span is not None and span.stage == "hw":
                    span.advance("air", t)
        elif kind == ("agg", "tx_done"):
            if not r.get("ok"):
                return
            in_window = self._in_window(t)
            for pid in self.aggs.pop(r["agg"], ()):
                span = self.open.pop(pid, None)
                if span is None:
                    continue
                span.close(t, "delivered")
                span.in_window = in_window
                self._sink(span)
        elif kind == ("meta", "measurement_start"):
            self.window_start = t
            if not self.result.windowed:
                self.result.windowed = True
                self.buffered.clear()
        elif kind == ("tx", "tx"):
            if r.get("bss") is not None:
                self.result.bss_of[r["station"]] = r["bss"]

    def attribution(self) -> Attribution:
        for span in self.buffered:
            _ref_observe(self.result, span)
        self.buffered.clear()
        self.result.open_spans = len(self.open)
        self.result.unmatched = self.unmatched
        self.result.pre_enqueue_drops = self.pre_enqueue_drops
        return self.result

    def spans(self, t_last):
        """Closed spans in close order, then the residual in pid order."""
        out = list(self.closed)
        for pid in sorted(self.open):
            span = self.open[pid]
            span.advance(span.stage, t_last)
            out.append(span)
        return out


def _span_key(span):
    return (span.pid, span.station, span.flow, span.t_start, span.t_end,
            span.outcome, dict(span.segments), span.stage, span.agg_seq,
            span.drop_layer, span.drop_reason, span.in_window)


# ----------------------------------------------------------------------
# Record streams from a toy downlink stack
# ----------------------------------------------------------------------
_DT = st.one_of(
    st.sampled_from([0.0, 0.0, 0.25, 1.0, 2.0, 1500.0, -0.5]),
    st.floats(0.0, 5e4, allow_nan=False, allow_infinity=False),
)
_STATION = st.sampled_from([0, 1, 2])


@st.composite
def record_streams(draw):
    t = 0.0
    pids = iter(range(1, 10_000))
    seqs = iter(range(1, 10_000))
    queued: List[tuple] = []        # (pid, layer)
    in_driver: List[int] = []
    ready: List[int] = []           # handed to the aggregate builder
    built: Dict[int, List[int]] = {}
    popped: Dict[int, List[int]] = {}
    bss: Dict[int, int] = {}
    marker_left = draw(st.booleans())
    records = []

    def emit(cat, ev, **fields):
        records.append({"t": t, "cat": cat, "ev": ev, **fields})

    for _ in range(draw(st.integers(0, 80))):
        t += draw(_DT)
        op = draw(st.sampled_from([
            *["enqueue"] * 4, *["dequeue"] * 3, *["driver"] * 2,
            *["build"] * 2, *["pop"] * 2, *["tx_done"] * 3,
            "drop", "drop_unknown", "marker", "roam", "bogus",
        ]))
        burst = draw(st.integers(1, 3))
        if op == "enqueue":
            # The qdisc above the driver is stationless.
            layer = draw(st.sampled_from(["qdisc", "mac"]))
            station = None if layer == "qdisc" else draw(_STATION)
            for _ in range(burst):
                pid = next(pids)
                emit("queue", "enqueue", layer=layer, station=station,
                     flow=0, pid=pid)
                queued.append((pid, layer))
        elif op == "dequeue" and queued:
            for pid, layer in queued[:burst]:
                emit("queue", "dequeue", layer=layer,
                     station=None if layer == "qdisc" else draw(_STATION),
                     pid=pid)
                (in_driver if layer == "qdisc" else ready).append(pid)
            del queued[:burst]
        elif op == "driver" and in_driver:
            station = draw(_STATION)
            for pid in in_driver[:burst]:
                emit("driver", "dequeue", station=station, pid=pid)
                ready.append(pid)
            del in_driver[:burst]
        elif op == "build" and ready:
            size = draw(st.integers(1, len(ready)))
            members, ready[:size] = ready[:size], []
            seq = next(seqs)
            emit("agg", "built", agg=seq, station=draw(_STATION),
                 pids=list(members))
            built[seq] = members
        elif op == "pop" and (built or popped):
            # A first pop, or a retry of an aggregate already on the air.
            seq = draw(st.sampled_from(sorted(built) + sorted(popped)))
            emit("hw", "pop", agg=seq)
            if seq in built:
                popped[seq] = built.pop(seq)
        elif op == "tx_done" and popped:
            seq = draw(st.sampled_from(sorted(popped)))
            ok = draw(st.sampled_from([True, True, False]))
            emit("agg", "tx_done", agg=seq, station=0, ok=ok)
            if ok:
                del popped[seq]
        elif op == "drop":
            live = ([pid for pid, _ in queued] + in_driver + ready
                    + [p for m in built.values() for p in m]
                    + [p for m in popped.values() for p in m])
            if live:
                pid = draw(st.sampled_from(live))
                queued[:] = [q for q in queued if q[0] != pid]
                for held in (in_driver, ready, *built.values(),
                             *popped.values()):
                    if pid in held:
                        held.remove(pid)
                emit("queue", "drop", layer=draw(st.sampled_from(
                    ["qdisc", "mac", "driver"])), station=draw(_STATION),
                    flow=1, pid=pid, reason="overlimit")
        elif op == "drop_unknown":
            emit("queue", "drop", layer="mac", station=draw(_STATION),
                 flow=1, pid=next(pids), reason="detached")
        elif op == "marker" and marker_left:
            # Stamped ahead of the records that follow it at times, so
            # that spans closing after the marker can still be out of
            # the window.
            marker_left = False
            records.append({"t": t + draw(st.sampled_from([0.0, 2000.0])),
                            "cat": "meta", "ev": "measurement_start"})
        elif op == "roam":
            station = draw(_STATION)
            bss[station] = 1 - bss.get(station, 0)
            emit("tx", "tx", station=station, bss=bss[station])
        elif op == "bogus":
            # Join inconsistencies: a dequeue, build or pop of the unknown.
            emit(*draw(st.sampled_from([
                ("queue", "dequeue"), ("agg", "built"), ("hw", "pop")])),
                pid=10_001, agg=10_001, pids=[10_001], station=0,
                layer="mac")
    return records


# ----------------------------------------------------------------------
@settings(max_examples=250, deadline=None)
@given(records=record_streams())
def test_batched_fold_equals_the_per_span_reference(records):
    reference = _Reference()
    for record in records:
        reference.feed(record)
    assert (attribute_records(records).to_dict()
            == reference.attribution().to_dict())


@settings(max_examples=125, deadline=None)
@given(records=record_streams())
def test_batched_join_closes_the_same_spans(records):
    reference = _Reference()
    for record in records:
        reference.feed(record)
    t_last = records[-1]["t"] if records else None
    assert ([_span_key(s) for s in iter_spans(records)]
            == [_span_key(s) for s in reference.spans(t_last)])


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 1500.0, 1500.0]),
    st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False),
    st.floats(-10.0, 0.0)), max_size=40),
    cut=st.integers(0, 40))
def test_observe_many_is_repeated_observe(values, cut):
    """Bins from ``int(log2(v) * 8)`` equal the ``floor`` formula for any
    finite value, and any cut of a series into two batches gives the same
    stats."""
    batched, reference = SegmentStats(), SegmentStats()
    batched.observe_many(values[:cut])
    batched.observe_many(values[cut:])
    for value in values:
        _ref_observe_value(reference, value)
    assert batched.to_dict() == reference.to_dict()
