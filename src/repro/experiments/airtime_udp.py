"""Figure 5: airtime usage for one-way UDP traffic, per scheme.

Each of the four queue-management schemes runs saturating downstream UDP
to the three stations; the result is each station's share of the total
airtime.  The paper's headline observations:

* FIFO / FQ-CoDel: the slow station takes ~80% of the airtime (the
  802.11 performance anomaly);
* FQ-MAC: shares move toward the transmission-time ratio because queue
  space is shared fairly, restoring fast stations' aggregation;
* Airtime fair FQ: all three stations get exactly 1/3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.config import three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions, scheme_specs
from repro.experiments.workloads import saturating_udp_download
from repro.faults import ConservationReport, FaultSchedule
from repro.mac.ap import ALL_SCHEMES, Scheme
from repro.runner import RunSpec, Runner, execute
from repro.telemetry import TelemetryConfig

__all__ = ["AirtimeUdpResult", "run", "specs", "format_table", "ALL_SCHEMES"]


@dataclass(frozen=True)
class AirtimeUdpResult:
    """One scheme's measurements for the UDP airtime experiment."""

    scheme: Scheme
    airtime_shares: Dict[int, float]
    throughput_mbps: Dict[int, float]
    mean_aggregation: Dict[int, float]
    #: Telemetry summary of the run (None for untraced runs); cached runs
    #: replay the same summary a fresh run produced.
    telemetry: Optional[Dict] = None
    #: Conservation audit (impaired/strict runs only).
    conservation: Optional[ConservationReport] = None
    #: Realised-fault counters (impaired runs only).
    fault_summary: Optional[Dict] = None

    @property
    def total_mbps(self) -> float:
        return sum(self.throughput_mbps.values())


def run_scheme(
    scheme: Scheme,
    duration_s: float = 10.0,
    warmup_s: float = 3.0,
    seed: int = 1,
    telemetry: Optional[TelemetryConfig] = None,
    faults: Optional[FaultSchedule] = None,
    strict: bool = False,
) -> AirtimeUdpResult:
    """Run the UDP airtime scenario for one scheme."""
    testbed = Testbed(
        three_station_rates(),
        TestbedOptions(scheme=scheme, seed=seed, telemetry=telemetry,
                       faults=faults, strict=strict),
    )
    saturating_udp_download(testbed)
    window_us = testbed.run(duration_s, warmup_s)
    stations = sorted(testbed.stations)
    return AirtimeUdpResult(
        scheme=scheme,
        airtime_shares=testbed.tracker.airtime_shares(stations),
        throughput_mbps={
            i: testbed.tracker.throughput_bps(i, window_us) / 1e6
            for i in stations
        },
        mean_aggregation={
            i: testbed.tracker.mean_aggregation(i) for i in stations
        },
        telemetry=testbed.finish_telemetry(),
        conservation=testbed.conservation,
        fault_summary=(
            testbed.fault_injector.summary()
            if testbed.fault_injector is not None else None
        ),
    )


def specs(
    schemes: Sequence[Scheme] = ALL_SCHEMES,
    duration_s: float = 10.0,
    warmup_s: float = 3.0,
    seed: int = 1,
    telemetry: Optional[TelemetryConfig] = None,
    faults: Optional[FaultSchedule] = None,
    strict: bool = False,
) -> List[RunSpec]:
    """One spec per scheme.  ``faults``/``strict`` enter the kwargs only
    when set, so clean runs keep their historical digests and impaired
    runs never collide with them."""
    kwargs = dict(duration_s=duration_s, warmup_s=warmup_s, seed=seed)
    if faults is not None:
        kwargs["faults"] = faults
    if strict:
        kwargs["strict"] = strict
    return scheme_specs("airtime_udp", "airtime_udp", schemes, telemetry,
                        **kwargs)


def run(
    schemes: Sequence[Scheme] = ALL_SCHEMES,
    duration_s: float = 10.0,
    warmup_s: float = 3.0,
    seed: int = 1,
    runner: Optional[Runner] = None,
    telemetry: Optional[TelemetryConfig] = None,
    faults: Optional[FaultSchedule] = None,
    strict: bool = False,
) -> List[AirtimeUdpResult]:
    return execute(
        specs(schemes, duration_s, warmup_s, seed, telemetry, faults, strict),
        runner,
    )


def format_table(results: Sequence[AirtimeUdpResult]) -> str:
    """Render the Figure 5 data as text (one column group per scheme)."""
    lines = ["Figure 5 — Airtime share, one-way UDP (stations: Fast1 Fast2 Slow)"]
    header = f"{'Scheme':>16} {'Fast1':>7} {'Fast2':>7} {'Slow':>7} {'Total Mbps':>11}"
    lines.append(header)
    for result in results:
        if result is None:  # failed run; the runner's failure table has it
            continue
        shares = result.airtime_shares
        lines.append(
            f"{result.scheme.value:>16} "
            f"{shares.get(0, 0.0):7.1%} {shares.get(1, 0.0):7.1%} "
            f"{shares.get(2, 0.0):7.1%} {result.total_mbps:11.1f}"
        )
    return "\n".join(lines)
