"""Metrics registry: counters, gauges, histograms, and a periodic sampler.

The registry is the *aggregated* complement to the trace bus: where the
bus records individual events, the registry accumulates cheap numeric
state (a counter bump, a histogram observation) and the
:class:`PeriodicSampler` turns instantaneous state — queue depth,
hardware-queue occupancy, per-station deficits and airtime — into time
series on a fixed simulated-time grid, ready for any external tool via
the JSON snapshot.

Everything is dependency-free and deterministic: series are keyed by
name, sampled on the simulator clock, and serialised with sorted keys.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.sim.engine import PeriodicTimer, Simulator, US_PER_MS

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PeriodicSampler",
]


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming histogram with power-of-two buckets.

    Exact count/sum/min/max plus approximate quantiles from log2 buckets
    — enough resolution for latency-style distributions (each bucket is
    one octave) without storing samples.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # Bucket index = binary exponent: value in (2^(i-1), 2^i].
        index = math.frexp(value)[1] if value > 0 else 0
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (upper bucket bound)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be within [0, 1]")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        threshold = q * self.count
        cumulative = 0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= threshold:
                return min(float(2.0 ** index), self.max)
        return self.max

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Name-keyed store of counters/gauges/histograms plus time series."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: Sampled time series: name -> [(t_us, value), ...].
        self.series: Dict[str, List[Tuple[float, float]]] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    # ------------------------------------------------------------------
    def record_sample(self, name: str, t_us: float, value: float) -> None:
        """Append one ``(t_us, value)`` point to the ``name`` series."""
        series = self.series.get(name)
        if series is None:
            series = self.series[name] = []
        series.append((t_us, value))

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-data view of everything the registry holds."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
            "series": {
                n: [[t, v] for t, v in points]
                for n, points in sorted(self.series.items())
            },
        }

    def write_json(self, path: str) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps(self.snapshot(), sort_keys=True, indent=1) + "\n"
        )
        return target


#: A probe returns a mapping of series name -> instantaneous value.
Probe = Callable[[], Mapping[str, float]]


class PeriodicSampler:
    """Samples registered probes into the registry on a fixed sim-time grid.

    Probes are plain callables returning ``{series_name: value}``; the
    sampler stamps each value with the simulated time and also mirrors it
    into a gauge of the same name (so the final snapshot carries the
    last-seen value even without the series).
    """

    def __init__(
        self,
        sim: Simulator,
        registry: MetricsRegistry,
        interval_ms: float = 100.0,
    ) -> None:
        self.registry = registry
        self._probes: List[Probe] = []
        self._timer = PeriodicTimer(sim, interval_ms * US_PER_MS, self._tick)
        self._sim = sim
        self.samples_taken = 0

    def add_probe(self, probe: Probe) -> None:
        self._probes.append(probe)

    def start(self) -> "PeriodicSampler":
        self._timer.start(first_delay_us=0.0)
        return self

    def stop(self) -> None:
        self._timer.stop()

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self._sim.now
        registry = self.registry
        for probe in self._probes:
            for name, value in probe().items():
                registry.record_sample(name, now, value)
                registry.gauge(name).set(value)
        self.samples_taken += 1
