"""Fault-tolerance scenario: the four schemes under an impairment schedule.

The paper's evaluation runs on a clean channel; this scenario asks what
each queueing scheme does when the network misbehaves.  All four schemes
run saturating downstream UDP plus pings under the *same* deterministic
fault schedule — a loss burst on the slow station, a co-channel
interference window, a rate crash on a fast station, and one station
churning (detach + re-attach) — while a simulation-time sampler records
windowed airtime fairness (Jain's index over per-window airtime deltas)
and ping latency, so the output is fairness/latency *over time* rather
than end-of-run aggregates.

Every run finishes with the packet-conservation audit; its report and the
realised-fault counters ride along in the result row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.fairness import jain_index
from repro.experiments.config import three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions, scheme_specs
from repro.experiments.workloads import add_pings, saturating_udp_download
from repro.faults import (
    BurstLoss,
    Churn,
    ConservationReport,
    FaultSchedule,
    Interference,
    RateCrash,
)
from repro.mac.ap import ALL_SCHEMES, Scheme
from repro.runner import RunSpec
from repro.sim.engine import PeriodicTimer
from repro.telemetry import TelemetryConfig

__all__ = [
    "FaultToleranceResult",
    "default_schedule",
    "run_scheme",
    "specs",
    "format_table",
    "ALL_SCHEMES",
]

#: Fairness/latency sampling window (simulated seconds).
SAMPLE_WINDOW_S = 0.5


def default_schedule(duration_s: float, warmup_s: float) -> FaultSchedule:
    """The standard impairment schedule, scaled into the measurement window.

    Stations follow the three-station testbed convention: 0 and 1 are
    fast, 2 is the slow station.
    """
    t0 = warmup_s

    def at(fraction: float) -> float:
        return t0 + fraction * duration_s

    return FaultSchedule(
        burst_loss=(
            BurstLoss(station=2, start_s=at(0.10), end_s=at(0.40),
                      bad_error=0.8,
                      mean_good_s=max(0.05, duration_s / 20),
                      mean_bad_s=max(0.02, duration_s / 50)),
        ),
        interference=(
            Interference(start_s=at(0.45), end_s=at(0.55), error_prob=0.35),
        ),
        rate_crash=(
            RateCrash(station=0, start_s=at(0.30), end_s=at(0.60),
                      max_reliable_mcs=1),
        ),
        churn=(
            Churn(station=1, detach_s=at(0.60), reattach_s=at(0.80),
                  mode="flush"),
        ),
    )


@dataclass(frozen=True)
class FaultToleranceResult:
    """One scheme's behaviour under the impairment schedule."""

    scheme: Scheme
    #: (time_s, Jain's index of the window's airtime deltas) per window.
    jain_series: Tuple[Tuple[float, float], ...]
    #: (time_s, mean ping RTT ms) per window that saw any replies.
    rtt_series: Tuple[Tuple[float, float], ...]
    throughput_mbps: Dict[int, float]
    #: Drop-funnel totals per layer (full run, warm-up included).
    drops: Dict[str, int]
    conservation: Optional[ConservationReport]
    fault_summary: Optional[Dict]
    telemetry: Optional[Dict] = None

    @property
    def total_mbps(self) -> float:
        return sum(self.throughput_mbps.values())

    def min_jain(self) -> float:
        """Worst fairness window (the impairment's deepest dent)."""
        return min((j for _, j in self.jain_series), default=1.0)

    def worst_rtt_ms(self) -> float:
        return max((r for _, r in self.rtt_series), default=0.0)


class _WindowSampler:
    """Samples windowed Jain fairness and ping RTT in simulation time.

    The window start zeroes the airtime account and clears the RTT
    lists, so it restarts both baselines and both series: every entry is
    a measured window, the first a delta from the window start."""

    def __init__(self, testbed: Testbed, pings) -> None:
        self._testbed = testbed
        self._pings = pings
        self._stations = sorted(testbed.stations)
        self._restart()
        testbed.sim.at_window_start(self._restart)
        self._timer = PeriodicTimer(
            testbed.sim, testbed.sim.sec(SAMPLE_WINDOW_S), self._sample
        )

    def _restart(self) -> None:
        self.jain_series: List[Tuple[float, float]] = []
        self.rtt_series: List[Tuple[float, float]] = []
        self._last_airtime = {i: 0.0 for i in self._stations}
        self._seen_rtts = {i: 0 for i in self._pings}

    def start(self) -> "_WindowSampler":
        self._timer.start()
        return self

    def stop(self) -> None:
        self._timer.stop()

    def _sample(self) -> None:
        testbed = self._testbed
        now_s = testbed.sim.now_sec
        deltas = []
        for i in self._stations:
            total = testbed.tracker.airtime_us.get(i, 0.0)
            deltas.append(max(0.0, total - self._last_airtime[i]))
            self._last_airtime[i] = total
        self.jain_series.append((now_s, jain_index(deltas)))

        window_rtts: List[float] = []
        for i, flow in self._pings.items():
            samples = flow.rtts_us
            new = samples[self._seen_rtts[i]:]
            self._seen_rtts[i] = len(samples)
            window_rtts.extend(new)
        if window_rtts:
            mean_ms = sum(window_rtts) / len(window_rtts) / 1000.0
            self.rtt_series.append((now_s, mean_ms))


def run_scheme(
    scheme: Scheme,
    duration_s: float = 10.0,
    warmup_s: float = 2.0,
    seed: int = 1,
    faults: Optional[FaultSchedule] = None,
    strict: bool = False,
    telemetry: Optional[TelemetryConfig] = None,
) -> FaultToleranceResult:
    """Run the impaired scenario for one scheme.

    ``faults=None`` uses :func:`default_schedule` (the spec builder
    always passes the schedule explicitly so it enters the cache digest).
    """
    if faults is None:
        faults = default_schedule(duration_s, warmup_s)
    testbed = Testbed(
        three_station_rates(),
        TestbedOptions(scheme=scheme, seed=seed, telemetry=telemetry,
                       faults=faults, strict=strict),
    )
    saturating_udp_download(testbed)
    pings = add_pings(testbed)
    sampler = _WindowSampler(testbed, pings).start()
    window_us = testbed.run(duration_s, warmup_s)
    sampler.stop()
    stations = sorted(testbed.stations)
    drops = {
        layer: sum(reasons.values())
        for layer, reasons in sorted(testbed.ap.drops.counts.items())
    }
    return FaultToleranceResult(
        scheme=scheme,
        jain_series=tuple(sampler.jain_series),
        rtt_series=tuple(sampler.rtt_series),
        throughput_mbps={
            i: testbed.tracker.throughput_bps(i, window_us) / 1e6
            for i in stations
        },
        drops=drops,
        conservation=testbed.conservation,
        fault_summary=(
            testbed.fault_injector.summary()
            if testbed.fault_injector is not None else None
        ),
        telemetry=testbed.finish_telemetry(),
    )


def specs(
    schemes: Sequence[Scheme] = ALL_SCHEMES,
    *,
    duration_s: float,
    warmup_s: float,
    seed: int = 1,
    faults: Optional[FaultSchedule] = None,
    strict: bool = False,
    telemetry: Optional[TelemetryConfig] = None,
) -> List[RunSpec]:
    """One spec per scheme, all under the same (explicit) schedule."""
    if faults is None:
        faults = default_schedule(duration_s, warmup_s)
    kwargs = dict(duration_s=duration_s, warmup_s=warmup_s, seed=seed,
                  faults=faults)
    if strict:
        kwargs["strict"] = strict
    return scheme_specs("fault_tolerance", "fault_tolerance", schemes,
                        telemetry, **kwargs)


def format_table(results: Sequence[FaultToleranceResult]) -> str:
    """Render the fault-tolerance sweep as text.

    ``None`` entries (runs that failed at the runner level) are skipped;
    the runner's failure table reports them separately.
    """
    lines = [
        "Fault tolerance — impaired UDP + pings "
        "(burst loss, interference, rate crash, churn)"
    ]
    lines.append(
        f"{'Scheme':>16} {'Mbps':>7} {'min Jain':>9} {'worst RTT':>10} "
        f"{'drops q/m/h':>14} {'conserved':>9}"
    )
    for result in results:
        if result is None:
            continue
        drops = "/".join(
            str(result.drops.get(layer, 0)) for layer in ("qdisc", "mac", "hw")
        )
        conserved = "-"
        if result.conservation is not None:
            conserved = "yes" if result.conservation.ok else (
                f"off by {result.conservation.balance}"
            )
        lines.append(
            f"{result.scheme.value:>16} {result.total_mbps:7.1f} "
            f"{result.min_jain():9.3f} {result.worst_rtt_ms():8.1f}ms "
            f"{drops:>14} {conserved:>9}"
        )
    return "\n".join(lines)
