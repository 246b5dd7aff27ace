"""The periodic sampler: instantaneous state as time series.

The trace bus records individual events and the tap-fed
:class:`~repro.telemetry.streaming.StreamingStats` aggregates them
(sojourn sketches, the drop funnel); what neither sees is *state* —
queue depth, hardware-queue occupancy, per-station deficits and airtime.
:class:`PeriodicSampler` reads that state through probes on a fixed
simulated-time grid and keeps one series per name, ready for any
external tool via the ``--metrics-out`` JSON.

Everything is dependency-free and deterministic: series are keyed by
name, sampled on the simulator clock, and serialised with sorted keys.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.sim.engine import PeriodicTimer, Simulator, US_PER_MS

__all__ = ["PeriodicSampler", "SAMPLE_INTERVAL_MS"]

#: Sampling grid (simulated milliseconds).
SAMPLE_INTERVAL_MS = 100.0

#: A probe returns a mapping of series name -> instantaneous value.
Probe = Callable[[], Mapping[str, float]]


class PeriodicSampler:
    """Samples registered probes into :attr:`series` every
    :data:`SAMPLE_INTERVAL_MS` of simulated time, from :meth:`start`
    until :meth:`stop`."""

    def __init__(self) -> None:
        #: Sampled time series: name -> [(t_us, value), ...], in probe
        #: (insertion) order.
        self.series: Dict[str, List[Tuple[float, float]]] = {}
        self._probes: List[Probe] = []
        self._timer: Optional[PeriodicTimer] = None
        self.samples_taken = 0

    def add_probe(self, probe: Probe) -> None:
        self._probes.append(probe)

    def start(self, sim: Simulator) -> "PeriodicSampler":
        """Take the first sample now and every interval after it."""
        self._timer = PeriodicTimer(sim, SAMPLE_INTERVAL_MS * US_PER_MS,
                                    self._tick)
        self._timer.start(first_delay_us=0.0)
        return self

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.stop()

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self._timer.sim.now
        series = self.series
        for probe in self._probes:
            for name, value in probe().items():
                try:
                    series[name].append((now, value))
                except KeyError:
                    series[name] = [(now, value)]
        self.samples_taken += 1

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data view of the series, sorted by name."""
        return {
            "series": {
                name: [[t, v] for t, v in points]
                for name, points in sorted(self.series.items())
            },
        }
