"""Latency-waterfall attribution: where each packet's sojourn was spent.

Consumes the packet-lifecycle spans of
:mod:`repro.telemetry.spans` and aggregates them into per-station,
per-segment statistics — the "which layer added the 200 ms" answer the
paper's Figure 2/Figure 6 analysis needs.  Also provides the regression
diff used by ``repro trace diff`` and ``benchmarks/gate.py``.

Statistics are **streaming**: means are exact (count + sum); quantiles
come from a deterministic log-spaced histogram (8 sub-bins per octave,
≈ 9 % worst-case value resolution) so memory stays O(bins) regardless of
trace size and identical inputs always produce identical quantiles
(self-diff is exactly zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.telemetry.spans import SEGMENTS, Span, SpanCollector
from repro.telemetry.trace import iter_trace_file

__all__ = [
    "SegmentStats",
    "StationAttribution",
    "Attribution",
    "AttributionBuilder",
    "attribute_records",
    "attribute_file",
    "format_waterfall",
    "diff_attributions",
    "diff_airtime_shares",
]

#: Sub-bins per octave of the quantile histogram.
_BINS_PER_OCTAVE = 8
_SPARKS = "▁▂▃▄▅▆▇█"


def _bin_index(value_us: float) -> int:
    """Histogram bin for a (non-negative) duration in µs."""
    if value_us < 1.0:
        return -1  # sub-microsecond (including exactly zero)
    return int(math.floor(math.log2(value_us) * _BINS_PER_OCTAVE))


def _bin_value(index: int) -> float:
    """Representative duration (µs) of bin ``index`` (its midpoint)."""
    if index < 0:
        return 0.0
    return 2.0 ** ((index + 0.5) / _BINS_PER_OCTAVE)


@dataclass(slots=True)
class SegmentStats:
    """Streaming stats for one (station, segment) time series."""

    count: int = 0
    total_us: float = 0.0
    min_us: float = 0.0
    max_us: float = 0.0
    bins: Dict[int, int] = field(default_factory=dict)

    def observe(self, value_us: float) -> None:
        if self.count == 0 or value_us < self.min_us:
            self.min_us = value_us
        if value_us > self.max_us:
            self.max_us = value_us
        self.count += 1
        self.total_us += value_us
        index = _bin_index(value_us)
        self.bins[index] = self.bins.get(index, 0) + 1

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile (log-binned; exact at q=0 and q=1)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min_us
        if q == 1.0:
            return self.max_us
        threshold = q * self.count
        seen = 0
        for index in sorted(self.bins):
            seen += self.bins[index]
            if seen >= threshold:
                return min(max(_bin_value(index), self.min_us), self.max_us)
        return self.max_us  # pragma: no cover - threshold <= count

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total_us": self.total_us,
            "min_us": self.min_us,
            "max_us": self.max_us,
            "bins": {str(k): v for k, v in sorted(self.bins.items())},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SegmentStats":
        return cls(
            count=data["count"],
            total_us=data["total_us"],
            min_us=data["min_us"],
            max_us=data["max_us"],
            bins={int(k): v for k, v in data.get("bins", {}).items()},
        )


@dataclass(slots=True)
class StationAttribution:
    """Per-station latency breakdown over delivered packets."""

    delivered: int = 0
    dropped: int = 0
    total: SegmentStats = field(default_factory=SegmentStats)
    segments: Dict[str, SegmentStats] = field(default_factory=dict)

    def observe(self, span: Span) -> None:
        self.delivered += 1
        self.total.observe(span.total_us)
        for name in SEGMENTS:
            value = span.segments.get(name)
            if value is None:
                continue
            stats = self.segments.get(name)
            if stats is None:
                stats = self.segments[name] = SegmentStats()
            stats.observe(value)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "delivered": self.delivered,
            "dropped": self.dropped,
            "total": self.total.to_dict(),
            "segments": {
                name: stats.to_dict()
                for name, stats in sorted(self.segments.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StationAttribution":
        return cls(
            delivered=data["delivered"],
            dropped=data.get("dropped", 0),
            total=SegmentStats.from_dict(data["total"]),
            segments={
                name: SegmentStats.from_dict(stats)
                for name, stats in data.get("segments", {}).items()
            },
        )


@dataclass(slots=True)
class Attribution:
    """The full latency-attribution result for one trace."""

    stations: Dict[int, StationAttribution] = field(default_factory=dict)
    delivered: int = 0
    dropped: int = 0
    open_spans: int = 0
    unmatched: int = 0
    pre_enqueue_drops: int = 0
    #: True when the stats cover the measurement window only.
    windowed: bool = False
    #: Station -> BSS id, harvested from multi-BSS ``tx`` records; empty
    #: for single-BSS traces, which keeps legacy waterfalls unchanged.
    bss_of: Dict[int, int] = field(default_factory=dict)

    def _station(self, station: Optional[int]) -> StationAttribution:
        key = -1 if station is None else station
        entry = self.stations.get(key)
        if entry is None:
            entry = self.stations[key] = StationAttribution()
        return entry

    def observe(self, span: Span) -> None:
        if span.outcome == "delivered":
            self.delivered += 1
            self._station(span.station).observe(span)
        elif span.outcome == "dropped":
            self.dropped += 1
            self._station(span.station).dropped += 1
        else:
            self.open_spans += 1

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "stations": {
                str(station): entry.to_dict()
                for station, entry in sorted(self.stations.items())
            },
            "delivered": self.delivered,
            "dropped": self.dropped,
            "open_spans": self.open_spans,
            "unmatched": self.unmatched,
            "pre_enqueue_drops": self.pre_enqueue_drops,
            "windowed": self.windowed,
            "bss_of": {str(station): bss
                       for station, bss in sorted(self.bss_of.items())},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Attribution":
        return cls(
            stations={
                int(station): StationAttribution.from_dict(entry)
                for station, entry in data.get("stations", {}).items()
            },
            delivered=data["delivered"],
            dropped=data.get("dropped", 0),
            open_spans=data.get("open_spans", 0),
            unmatched=data.get("unmatched", 0),
            pre_enqueue_drops=data.get("pre_enqueue_drops", 0),
            windowed=data.get("windowed", False),
            bss_of={
                int(station): bss
                for station, bss in data.get("bss_of", {}).items()
            },
        )


# ----------------------------------------------------------------------
# Building attributions from traces
# ----------------------------------------------------------------------
class AttributionBuilder(SpanCollector):
    """A span collector whose sink is a windowed :class:`Attribution`.

    When the trace contains a ``measurement_start`` marker only spans
    that *closed* inside the window contribute latency statistics — the
    latency experienced during the steady-state window, even for packets
    enqueued during warm-up (essential for the bloated-FIFO schemes,
    whose sojourn exceeds any reasonable window).  Without a marker
    every span counts.

    A windowed trace discards the whole-trace statistics entirely (only
    the open-span / unmatched counters survive into the result), so
    spans that close before the marker status is known are buffered and
    dropped the moment the first marker appears; from then on closed
    spans feed the windowed aggregation directly.  If no marker ever
    comes the buffer replays, in order, into the whole-trace result.

    Fed by trace-bus taps in a live run (``register``, what
    ``Telemetry`` does for ``spans=True``) or record by record from a
    file (``feed``, what :func:`attribute_records` does).
    """

    TAPS = {**SpanCollector.TAPS,
            ("tx", "tx"): ("on_tx", {"station": None, "bss": None})}

    def __init__(self) -> None:
        #: Spans closed before the marker status is known.  Pre-marker
        #: spans always close with ``in_window`` False, so once a marker
        #: shows up they are pure warm-up history.
        self._buffered: List[Span] = []
        super().__init__(sink=self._buffered.append)
        self._result = Attribution()

    def on_marker(self, t: float) -> None:
        super().on_marker(t)
        if not self._result.windowed:
            self._result.windowed = True
            self._buffered.clear()
            self.sink = self._observe_in_window

    def _observe_in_window(self, span: Span) -> None:
        if span.in_window:
            self._result.observe(span)

    def on_tx(self, t: float, station: int, bss: Optional[int]) -> None:
        if bss is not None:  # only multi-BSS tx records carry it
            self._result.bss_of[station] = bss

    def attribution(self) -> Attribution:
        """The result so far (idempotent; stitching may continue)."""
        result = self._result
        for span in self._buffered:
            result.observe(span)
        self._buffered.clear()
        # Open spans are a property of the trace, not of the window (open
        # spans never carry ``in_window``, so they contribute no stats).
        result.open_spans = self.open_count
        result.unmatched = self.unmatched
        result.pre_enqueue_drops = self.pre_enqueue_drops
        return result


def attribute_records(
    records: Iterable[Mapping[str, Any]],
) -> Attribution:
    """One streaming pass: records -> spans -> attribution."""
    builder = AttributionBuilder()
    feed = builder.feed
    for record in records:
        feed(record)
    return builder.attribution()


def attribute_file(path: str) -> Attribution:
    return attribute_records(iter_trace_file(path))


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _segment_sparkline(entry: StationAttribution) -> str:
    """One spark char per segment: its share of the mean total sojourn."""
    total = entry.total.mean_us
    if total <= 0:
        return ""
    chars = []
    for name in SEGMENTS:
        stats = entry.segments.get(name)
        share = (stats.mean_us / total) if stats is not None else 0.0
        chars.append(_SPARKS[min(int(share * len(_SPARKS)),
                                 len(_SPARKS) - 1)])
    return "".join(chars)


def format_waterfall(
    attribution: Attribution,
    title: str = "",
    width: int = 36,
) -> str:
    """Render the latency waterfall as text tables with bars."""
    from repro.analysis.plots import text_bars

    lines: List[str] = []
    if title:
        lines.append(f"# {title}")
    scope = ("measurement window" if attribution.windowed else "whole trace")
    lines.append(
        f"{attribution.delivered} delivered, {attribution.dropped} dropped, "
        f"{attribution.open_spans} still queued ({scope}); "
        f"unmatched joins: {attribution.unmatched}"
    )
    for station in sorted(attribution.stations):
        entry = attribution.stations[station]
        if entry.delivered == 0:
            continue
        label = "-" if station == -1 else str(station)
        if attribution.bss_of and station in attribution.bss_of:
            label = f"{label} (bss {attribution.bss_of[station]})"
        spark = _segment_sparkline(entry)
        lines.append("")
        lines.append(
            f"station {label}: n={entry.delivered} "
            f"mean={entry.total.mean_us / 1e3:.2f}ms "
            f"p95={entry.total.quantile(0.95) / 1e3:.2f}ms "
            f"[{'|'.join(SEGMENTS)}] {spark}"
        )
        bars = {
            name: entry.segments[name].mean_us / 1e3
            for name in SEGMENTS
            if name in entry.segments
        }
        lines.append(text_bars(bars, width=width, unit="ms"))
        p95 = ", ".join(
            f"{name} {entry.segments[name].quantile(0.95) / 1e3:.2f}"
            for name in SEGMENTS
            if name in entry.segments
        )
        lines.append(f"  p95 (ms): {p95}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Regression diff (``repro trace diff`` / benchmarks/gate.py)
# ----------------------------------------------------------------------
def _rel_change_pct(old: float, new: float, min_us: float) -> float:
    """Relative change of ``new`` vs ``old`` with a noise floor.

    Durations below ``min_us`` are clamped so a 2 µs -> 6 µs jitter in an
    empty segment cannot read as "+200 %".
    """
    base = max(abs(old), min_us)
    return abs(new - old) / base * 100.0


def diff_attributions(
    old: Attribution,
    new: Attribution,
    threshold_pct: float = 25.0,
    min_us: float = 500.0,
) -> List[str]:
    """Compare two waterfalls; return human-readable threshold breaches.

    A breach is a per-station mean or P95 (end-to-end or per-segment)
    that moved by more than ``threshold_pct`` relative to the old value
    (with ``min_us`` as the noise floor).  An empty list means the two
    runs match within tolerance.
    """
    breaches: List[str] = []
    stations = sorted(set(old.stations) | set(new.stations))
    for station in stations:
        a = old.stations.get(station)
        b = new.stations.get(station)
        label = "-" if station == -1 else str(station)
        a_delivered = a.delivered if a is not None else 0
        b_delivered = b.delivered if b is not None else 0
        if not a_delivered and not b_delivered:
            # Drop-only entries (e.g. the stationless '-' pseudo-station
            # collecting qdisc drops) carry no latency to compare.
            continue
        if not a_delivered or not b_delivered:
            missing = "old" if not a_delivered else "new"
            breaches.append(
                f"station {label}: no delivered packets in {missing} run"
            )
            continue
        names = [("total", a.total, b.total)]
        for seg in SEGMENTS:
            if seg in a.segments or seg in b.segments:
                empty = SegmentStats()
                names.append((
                    seg,
                    a.segments.get(seg, empty),
                    b.segments.get(seg, empty),
                ))
        for name, sa, sb in names:
            for stat, va, vb in (
                ("mean", sa.mean_us, sb.mean_us),
                ("p95", sa.quantile(0.95), sb.quantile(0.95)),
            ):
                change = _rel_change_pct(va, vb, min_us)
                if change > threshold_pct:
                    breaches.append(
                        f"station {label} {name} {stat}: "
                        f"{va / 1e3:.2f}ms -> {vb / 1e3:.2f}ms "
                        f"({change:+.0f}% > {threshold_pct:g}%)"
                    )
    return breaches


def diff_airtime_shares(
    old: Mapping[int, float],
    new: Mapping[int, float],
    threshold: float = 0.05,
) -> List[str]:
    """Compare per-station airtime shares; breaches beyond ``threshold``."""
    breaches: List[str] = []
    for station in sorted(set(old) | set(new)):
        a = old.get(station, 0.0)
        b = new.get(station, 0.0)
        if abs(a - b) > threshold:
            breaches.append(
                f"station {station} airtime share: {a:.1%} -> {b:.1%} "
                f"(|Δ| {abs(a - b):.1%} > {threshold:.1%})"
            )
    return breaches
