"""Figures 1 and 4: latency under load (ICMP ping with TCP downloads).

Each station runs a bulk TCP download while the server pings it.  The
paper reports CDFs of the ping RTTs, split into fast and slow stations:
FIFO sits at several hundred ms; FQ-CoDel helps the fast stations but the
slow station keeps >200 ms from the unmanaged driver queue; FQ-MAC cuts
both by an order of magnitude; Airtime matches FQ-MAC (and is omitted
from Figure 4 for readability).

``run`` also supports the bidirectional variant mentioned in
Section 4.1.1 (simultaneous upload and download), where the airtime
scheduler slightly worsens the slow station's latency because it is
scheduled less often to pay for its upstream airtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.stats import Summary, summarize
from repro.experiments.config import FAST_STATIONS, SLOW_STATION, three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions, scheme_specs
from repro.experiments.workloads import add_pings, tcp_bidir, tcp_download
from repro.mac.ap import ALL_SCHEMES, Scheme
from repro.runner import RunSpec, Runner, execute
from repro.telemetry import TelemetryConfig

__all__ = ["LatencyResult", "run", "run_scheme", "specs", "format_table",
           "ALL_SCHEMES"]


@dataclass(frozen=True)
class LatencyResult:
    """Ping RTT distributions for one scheme."""

    scheme: Scheme
    bidirectional: bool
    #: Raw RTT samples (ms) per station.
    rtts_ms: Dict[int, List[float]]
    #: Telemetry summary of the run (None for untraced runs).
    telemetry: Optional[Dict] = None

    def fast_summary(self) -> Summary:
        merged: List[float] = []
        for idx in FAST_STATIONS:
            merged.extend(self.rtts_ms.get(idx, []))
        return summarize(merged)

    def slow_summary(self) -> Summary:
        return summarize(self.rtts_ms.get(SLOW_STATION, []))


def run_scheme(
    scheme: Scheme,
    duration_s: float = 15.0,
    warmup_s: float = 5.0,
    seed: int = 1,
    bidirectional: bool = False,
    telemetry: Optional[TelemetryConfig] = None,
) -> LatencyResult:
    testbed = Testbed(
        three_station_rates(),
        TestbedOptions(scheme=scheme, seed=seed, telemetry=telemetry),
    )
    if bidirectional:
        tcp_bidir(testbed)
    else:
        tcp_download(testbed)
    pings = add_pings(testbed)
    testbed.run(duration_s, warmup_s)
    return LatencyResult(
        scheme=scheme,
        bidirectional=bidirectional,
        rtts_ms={idx: flow.rtts_ms for idx, flow in pings.items()},
        telemetry=testbed.finish_telemetry(),
    )


def specs(
    schemes: Sequence[Scheme] = ALL_SCHEMES,
    duration_s: float = 15.0,
    warmup_s: float = 5.0,
    seed: int = 1,
    bidirectional: bool = False,
    telemetry: Optional[TelemetryConfig] = None,
) -> List[RunSpec]:
    return scheme_specs(
        "latency", "latency", schemes, telemetry, duration_s=duration_s,
        warmup_s=warmup_s, seed=seed, bidirectional=bidirectional)


def run(
    schemes: Sequence[Scheme] = ALL_SCHEMES,
    duration_s: float = 15.0,
    warmup_s: float = 5.0,
    seed: int = 1,
    bidirectional: bool = False,
    runner: Optional[Runner] = None,
    telemetry: Optional[TelemetryConfig] = None,
) -> List[LatencyResult]:
    return execute(
        specs(schemes, duration_s, warmup_s, seed, bidirectional, telemetry),
        runner,
    )


def format_table(results: Sequence[LatencyResult]) -> str:
    title = "Figure 4 — ICMP RTT (ms) with simultaneous TCP download"
    if results and results[0].bidirectional:
        title = "ICMP RTT (ms) with simultaneous TCP up+download (online appendix)"
    lines = [title]
    lines.append(
        f"{'Scheme':>16} {'class':>6} {'p10':>8} {'median':>8} {'p90':>8} {'p99':>8}"
    )
    for result in results:
        for label, summary in (
            ("fast", result.fast_summary()),
            ("slow", result.slow_summary()),
        ):
            lines.append(
                f"{result.scheme.value:>16} {label:>6} "
                f"{summary.p10:8.1f} {summary.median:8.1f} "
                f"{summary.p90:8.1f} {summary.p99:8.1f}"
            )
    return "\n".join(lines)
