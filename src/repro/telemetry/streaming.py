"""Online statistics: O(1)-memory aggregation fed straight from the trace hooks.

*Retaining the whole trace* and decoding it after the run is the wrong
shape for long runs: memory grows with sim duration and the decode pass
costs as much as the simulation.  This module computes the common
summary outputs *during* the run instead, with flat memory:

* :class:`QuantileSketch` — a mergeable streaming quantile sketch
  (t-digest-style weighted centroids with a uniform weight cap).  Memory
  is bounded by ``max_centroids``; the rank error of any quantile query
  is bounded by :attr:`QuantileSketch.rank_error_bound` (verified by the
  Hypothesis property suite in ``tests/test_streaming.py``).  Sketches
  built over two halves of a stream can be :meth:`QuantileSketch.merge`\\ d
  and answer within the same bound as a single-pass sketch, which is what
  lets the campus experiment fold its stations' delay sketches into
  per-BSS and aggregate tails without keeping raw samples.
* :class:`WindowedJain` — Jain's fairness index over tumbling
  simulated-time windows of per-station airtime.
* :class:`StreamingStats` — the per-run aggregator: per-layer sojourn
  sketches, per-station RTT sketches, per-layer drop counters and the
  windowed Jain series; its snapshot reports the per-station totals of
  the run's one airtime account,
  :class:`~repro.analysis.stats.AirtimeTracker`, which the medium feeds.

``StreamingStats`` is a :class:`~repro.telemetry.trace.TapConsumer`: a
table of plain handlers the :class:`~repro.telemetry.trace.TraceBus`
calls straight from each emit site with the record's positional values
— no dict is built, no record is retained — and that ``feed`` drives
from a trace file, so ``trace summarize`` reads the same sketches.  With
``TelemetryConfig(streaming=True)`` the trace ring is bounded to a small
tail (kept for failure evidence) and the run's summary tables come
from the sketches, so peak memory no longer scales with sim duration.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import itemgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.fairness import jain_index
from repro.analysis.stats import AirtimeTracker
from repro.telemetry.trace import TapConsumer

__all__ = [
    "QuantileSketch",
    "WindowedJain",
    "StreamingStats",
    "jain_index",
]

#: Quantiles reported in every sketch snapshot.
SNAPSHOT_QUANTILES = (0.05, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99)


class QuantileSketch:
    """Mergeable streaming quantile sketch with bounded memory.

    The sketch keeps at most ``max_centroids`` weighted centroids
    ``(mean, weight)`` sorted by mean, plus an insertion buffer of the
    same size.  Incoming values accumulate in the buffer; when it fills,
    the buffer is sorted and merge-compressed into the centroid list
    with a *uniform* per-centroid weight cap of
    ``ceil(total_weight / max_centroids)``.

    **Error bound.**  With a uniform cap every centroid covers at most a
    ``1 / max_centroids`` fraction of the total rank range, and the
    query interpolates between centroid midpoints, so the rank of the
    returned value differs from the requested rank by at most one
    centroid's half-width on each side — plus the drift centroid means
    accumulate over repeated compressions.  We document (and test
    against) the conservative bound

    ``|rank(estimate) - q| <= rank_error_bound = 4 / max_centroids``

    e.g. ±2% rank error at the default ``max_centroids=200``.  Tail
    queries (q=0, q=1) are exact: the sketch tracks min/max.

    **Merging.**  ``a.merge(b)`` concatenates the centroid lists and
    recompresses under the combined cap.  Because compression only ever
    coalesces *adjacent* centroids, merging the sketches of two halves
    of a stream answers within the same documented bound as one sketch
    fed the whole stream (tested in ``tests/test_streaming.py``).
    """

    __slots__ = ("max_centroids", "_flush_at", "_count", "_total", "_m2",
                 "_min", "_max", "_means", "_weights", "_buffer")

    def __init__(self, max_centroids: int = 200) -> None:
        if max_centroids < 8:
            raise ValueError("max_centroids must be at least 8")
        self.max_centroids = max_centroids
        # Buffered samples are exact weight-1 points, so a buffer larger
        # than the centroid budget costs nothing in accuracy — it only
        # amortises the sort in _compress over more samples.  Memory is
        # still O(max_centroids).
        self._flush_at = 4 * max_centroids
        self._count = 0
        self._total = 0.0
        # Sum of squared deviations from the mean (Welford/Chan "M2").
        # Maintained by *batched* moment accounting: folded from the raw
        # buffer at compress time and combined across sketches with
        # Chan's parallel update — so variance is exact (up to float
        # rounding) no matter how aggressively centroids coalesce.
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._means: List[float] = []
        self._weights: List[float] = []
        self._buffer: List[float] = []

    # ------------------------------------------------------------------
    @property
    def rank_error_bound(self) -> float:
        """Documented maximum rank error of :meth:`quantile`."""
        return 4.0 / self.max_centroids

    @property
    def count(self) -> int:
        return self._count + len(self._buffer)

    @property
    def total(self) -> float:
        return self._total + sum(self._buffer)

    @property
    def mean(self) -> float:
        count = self.count
        return self.total / count if count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator); exact, not sketch-bounded.

        Unlike the quantile estimates, the second moment is carried
        outside the centroid list (see ``_m2``), so this is the same
        number an offline pass over the raw stream would produce.
        """
        self._compress()
        if self._count < 2:
            return 0.0
        return max(self._m2, 0.0) / (self._count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def stderr(self) -> float:
        """Standard error of the mean (0.0 below two samples)."""
        self._compress()
        if self._count < 2:
            return 0.0
        return self.stddev / math.sqrt(self._count)

    def __len__(self) -> int:
        return self.count

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        """Add one sample.  Amortised O(log max_centroids).

        The hot path is two list operations; moments and min/max are
        folded in batch (C-speed builtins over the buffer) at compress
        time.
        """
        buffer = self._buffer
        buffer.append(value)
        if len(buffer) >= self._flush_at:
            self._compress()

    def observe_many(self, values: Sequence[float]) -> None:
        """Add samples in order: exactly repeated :meth:`observe`.

        A burst that straddles the flush boundary is split there, so
        the sketch's state is identical however a stream is cut up.
        """
        buffer = self._buffer
        start = 0
        room = self._flush_at - len(buffer)
        while len(values) - start >= room:
            buffer.extend(values[start:start + room])
            start += room
            self._compress()
            room = self._flush_at
        buffer.extend(values[start:] if start else values)

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (returns ``self``).

        Merging an empty sketch (either direction) is a full identity:
        count, moments, min/max, and every quantile are unchanged.  Both
        sketches are compressed up front — *self* included, so that its
        buffered samples are folded into ``_count``/``_min``/``_max``/
        ``_m2`` before the moment combination reads them (skipping that
        fold used to leave a buffer-only sketch's tracking state stale
        across a merge with an empty peer).
        """
        other._compress()
        self._compress()
        if other._count == 0:
            return self
        # Chan et al. parallel moment combination, computed from the
        # pre-merge counts/means.
        n_a, n_b = self._count, other._count
        if n_a == 0:
            self._m2 = other._m2
        else:
            delta = other._total / n_b - self._total / n_a
            self._m2 += other._m2 + delta * delta * (n_a * n_b) / (n_a + n_b)
        self._count += other._count
        self._total += other._total
        if other._min < self._min:
            self._min = other._min
        if other._max > self._max:
            self._max = other._max
        # Merge-sort the two centroid lists by mean, then recompress.
        self._compress(extra=list(zip(other._means, other._weights)))
        return self

    # ------------------------------------------------------------------
    def _compress(self, extra: Optional[List[Tuple[float, float]]] = None) -> None:
        """Fold the buffer (and ``extra`` centroids) into the centroid list."""
        if not self._buffer and not extra and \
                len(self._means) <= self.max_centroids:
            return
        points: List[Tuple[float, float]] = list(
            zip(self._means, self._weights)
        )
        buffer = self._buffer
        if buffer:
            n_b = len(buffer)
            batch_total = sum(buffer)
            batch_mean = batch_total / n_b
            batch_m2 = math.fsum([
                (v - batch_mean) * (v - batch_mean) for v in buffer
            ])
            # Chan parallel combination of (existing, batch) moments.
            n_a = self._count
            if n_a == 0:
                self._m2 = batch_m2
            else:
                delta = batch_mean - self._total / n_a
                self._m2 += batch_m2 + \
                    delta * delta * (n_a * n_b) / (n_a + n_b)
            self._count += n_b
            self._total += batch_total
            lo, hi = min(buffer), max(buffer)
            if lo < self._min:
                self._min = lo
            if hi > self._max:
                self._max = hi
            points.extend(zip(map(float, buffer), repeat(1.0)))
            buffer.clear()
        if extra:
            points.extend(extra)
        if not points:
            return
        points.sort(key=itemgetter(0))
        total_weight = sum(map(itemgetter(1), points))
        cap = max(1.0, math.ceil(total_weight / self.max_centroids))
        means: List[float] = []
        weights: List[float] = []
        acc_mean, acc_weight = points[0]
        for mean, weight in points[1:]:
            if acc_weight + weight <= cap:
                # Weighted running mean keeps the centroid unbiased.
                acc_weight += weight
                acc_mean += (mean - acc_mean) * (weight / acc_weight)
            else:
                means.append(acc_mean)
                weights.append(acc_weight)
                acc_mean, acc_weight = mean, weight
        means.append(acc_mean)
        weights.append(acc_weight)
        self._means = means
        self._weights = weights

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (midpoint-rank interpolation)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if self.count == 0:
            return 0.0
        self._compress()
        if q == 0.0:
            return self._min
        if q == 1.0:
            return self._max
        means, weights = self._means, self._weights
        if len(means) == 1:
            return means[0]
        total = sum(weights)
        target = q * total
        # Centroid i's mean sits at its midpoint rank.
        cumulative = 0.0
        prev_mid = 0.0
        prev_mean = self._min
        for mean, weight in zip(means, weights):
            mid = cumulative + weight / 2.0
            if target < mid:
                span = mid - prev_mid
                frac = (target - prev_mid) / span if span > 0 else 0.0
                return prev_mean + (mean - prev_mean) * frac
            cumulative += weight
            prev_mid = mid
            prev_mean = mean
        # Past the last midpoint: interpolate toward the max.
        span = total - prev_mid
        frac = (target - prev_mid) / span if span > 0 else 1.0
        value = prev_mean + (self._max - prev_mean) * frac
        return min(value, self._max)

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        return [self.quantile(q) for q in qs]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot: count, moments, and standard quantiles."""
        if self.count == 0:
            return {"count": 0}
        self._compress()
        out: Dict[str, Any] = {
            "count": self.count,
            "mean": self.mean,
            "var": self.variance,
            "stderr": self.stderr,
            "min": self._min,
            "max": self._max,
        }
        for q in SNAPSHOT_QUANTILES:
            out[f"p{int(q * 100):02d}"] = self.quantile(q)
        return out


class WindowedJain:
    """Jain's fairness index over tumbling simulated-time windows.

    Airtime contributions are accumulated per station inside the current
    window; when the clock crosses the window boundary the index of the
    closed window is appended to :attr:`series` as ``(t_end_us, jain)``.
    Memory is O(stations + windows): one float per station plus two per
    closed window (the series grows with sim *duration*, not with event
    count — a 1 s window over a 300 s run is 300 entries).
    """

    __slots__ = ("window_us", "series", "_window_end", "_shares")

    def __init__(self, window_us: float = 1_000_000.0) -> None:
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        self.window_us = window_us
        self.series: List[Tuple[float, float]] = []
        self._window_end: Optional[float] = None
        self._shares: Dict[int, float] = {}

    def observe(self, t_us: float, station: int, airtime_us: float) -> None:
        if self._window_end is None:
            self._window_end = (
                math.floor(t_us / self.window_us) + 1
            ) * self.window_us
        while t_us >= self._window_end:
            self.flush()
            self._window_end += self.window_us
        self._shares[station] = self._shares.get(station, 0.0) + airtime_us

    def _open_window(self) -> List[Tuple[float, float]]:
        """The partial window as a series entry (none without airtime)."""
        if not self._shares:
            return []
        return [(self._window_end, jain_index(self._shares.values()))]

    def flush(self) -> None:
        """Close the current window (its boundary crossed, or end of run)."""
        self.series.extend(self._open_window())
        self._shares.clear()

    def snapshot(self) -> List[Tuple[float, float]]:
        """The series with the partial window rendered, not closed."""
        return self.series + self._open_window()

    def reset(self) -> None:
        """Restart the series in place (measurement-window reset)."""
        self.series.clear()
        self._shares.clear()
        self._window_end = None

    @property
    def latest(self) -> Optional[float]:
        return self.series[-1][1] if self.series else None


class RunAccounts(TapConsumer):
    """The drop and marker accounts behind a run's ``drops`` table.

    ``Telemetry`` taps these onto every trace bus, so ``finish()`` never
    needs the ring decoded; ``trace summarize`` feeds them a file.  Drop
    counters cover the whole trace; the per-station tables are the run's
    :class:`~repro.analysis.stats.AirtimeTracker`, fed by the medium.
    :class:`StreamingStats` adds its handlers to the same table.
    """

    TAPS = {
        ("queue", "drop"): ("on_drop", {"layer": "?", "reason": "?"}),
        ("meta", "measurement_start"): ("reset_window", {}),
    }

    def __init__(self) -> None:
        #: (layer, reason) -> drop count.
        self.drops: Dict[Tuple[str, str], int] = {}
        #: Records handled (drops here; tx, enqueue and dequeue in
        #: :class:`StreamingStats`); markers are not counted.
        self.records_seen = 0
        self.measurement_start_us: Optional[float] = None

    def on_drop(self, t: float, layer: str, reason: str) -> None:
        self.records_seen += 1
        key = (layer, reason)
        try:
            self.drops[key] += 1
        except KeyError:
            self.drops[key] = 1

    def reset_window(self, t_us: float) -> None:
        """Mark the measurement window's start (drops keep whole-trace
        scope)."""
        self.measurement_start_us = t_us

    def drop_table(self) -> Dict[str, int]:
        """``summary["drops"]``: ``layer:reason`` -> whole-trace count."""
        return {f"{layer}:{reason}": count
                for (layer, reason), count in sorted(self.drops.items())}


class StreamingStats(RunAccounts):
    """O(1)-memory per-run aggregator: the accounts plus sketches.

    Adds per-layer sojourn sketches and per-(layer, station) enqueue /
    dequeue counts (whole trace), and the windowed Jain series and
    per-station RTT sketches (measurement window).  ``account`` is the
    run's airtime account, whose per-station totals the snapshot reports.
    """

    TAPS = {
        **RunAccounts.TAPS,
        ("tx", "tx"): ("on_tx", {"station": -1, "airtime_us": 0.0}),
        ("queue", "enqueue"): ("on_enqueue", {"layer": "?", "station": None}),
        # A dequeue shape without a sojourn is not a queueing sample.
        ("queue", "dequeue"): ("on_dequeue", {
            "layer": "?", "station": None, "sojourn_us": None}),
    }

    def __init__(self, max_centroids: int = 200,
                 jain_window_us: float = 1_000_000.0,
                 account: Optional[AirtimeTracker] = None) -> None:
        super().__init__()
        self.account = account if account is not None else AirtimeTracker()
        self.max_centroids = max_centroids
        #: layer -> sojourn sketch (whole trace; µs).
        self.sojourn: Dict[str, QuantileSketch] = {}
        #: station -> RTT sketch (measurement window; µs).
        self.rtt: Dict[int, QuantileSketch] = {}
        #: (layer, station) -> [enqueues, dequeues].
        self.queue_counts: Dict[Tuple[str, Any], List[int]] = {}
        self.jain = WindowedJain(jain_window_us)

    def on_tx(self, t: float, station: int, airtime_us: float) -> None:
        self.records_seen += 1
        self.jain.observe(t, station, airtime_us)

    def on_enqueue(self, t: float, layer: str, station: Any) -> None:
        self.records_seen += 1
        key = (layer, station)
        try:
            self.queue_counts[key][0] += 1
        except KeyError:
            self.queue_counts[key] = [1, 0]

    def on_dequeue(self, t: float, layer: str, station: Any,
                   sojourn_us: Optional[float]) -> None:
        if sojourn_us is None:
            return
        self.records_seen += 1
        try:
            sketch = self.sojourn[layer]
        except KeyError:
            sketch = self.sojourn[layer] = QuantileSketch(self.max_centroids)
        sketch.observe(sojourn_us)
        key = (layer, station)
        try:
            self.queue_counts[key][1] += 1
        except KeyError:
            self.queue_counts[key] = [0, 1]

    # ------------------------------------------------------------------
    def reset_window(self, t_us: float) -> None:
        """RTT sketches and the Jain series restart with the window;
        sojourn sketches keep whole-trace scope."""
        super().reset_window(t_us)
        self.rtt.clear()
        self.jain.reset()

    def observe_rtt(self, station: int, rtt_us: float) -> None:
        """Feed one application-level RTT sample (ping flows)."""
        sketch = self.rtt.get(station)
        if sketch is None:
            sketch = self.rtt[station] = QuantileSketch(self.max_centroids)
        sketch.observe(rtt_us)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Deterministic JSON-ready snapshot of every accumulator.

        Read-only: the open Jain window is rendered, not closed.
        """
        account = self.account
        shares = account.airtime_shares()
        stations = {}
        for station in sorted(account.airtime_us):
            row = account.station(station)
            stations[str(station)] = {
                "transmissions": row["transmissions"],
                "airtime_us": row["airtime_us"],
                "downlink_airtime_us": row["downlink_airtime_us"],
                "uplink_airtime_us": row["uplink_airtime_us"],
                "payload_bytes": row["delivered_bytes"],
                "packets": row["packets"],
                "mean_aggregation": account.mean_aggregation(station),
                "airtime_share": shares[station],
            }
        return {
            "records_seen": self.records_seen,
            "measurement_start_us": self.measurement_start_us,
            "rank_error_bound": 4.0 / self.max_centroids,
            "stations": stations,
            "sojourn_us": {
                layer: sketch.to_dict()
                for layer, sketch in sorted(self.sojourn.items())
            },
            "rtt_us": {
                str(station): sketch.to_dict()
                for station, sketch in sorted(self.rtt.items())
            },
            "drops": self.drop_table(),
            "queues": {
                f"{layer}:{'-' if station is None else station}": {
                    "enqueues": pair[0], "dequeues": pair[1],
                }
                for (layer, station), pair in sorted(
                    self.queue_counts.items(),
                    key=lambda item: (item[0][0], str(item[0][1])),
                )
            },
            "jain": {
                "window_us": self.jain.window_us,
                "series": [[t, round(j, 6)]
                           for t, j in self.jain.snapshot()],
            },
        }
