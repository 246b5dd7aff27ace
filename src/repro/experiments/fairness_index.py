"""Figure 6: Jain's fairness index of airtime across traffic types.

For each scheme, Jain's index is computed over the three stations'
airtime for: one-way UDP, TCP download, and simultaneous bidirectional
TCP.  The paper's pattern: FIFO far from fair, FQ-CoDel/FQ-MAC partially
fair, Airtime near 1.0 — with a slight dip for bidirectional traffic
because the AP only controls the downlink directly (the uplink is merely
*compensated* through RX airtime accounting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.fairness import jain_index
from repro.experiments.config import three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.experiments.workloads import (
    saturating_udp_download,
    tcp_bidir,
    tcp_download,
)
from repro.mac.ap import ALL_SCHEMES, APConfig, Scheme
from repro.runner import RunSpec, Runner, execute

__all__ = ["FairnessResult", "run", "run_one", "specs", "format_table",
           "TRAFFIC_TYPES", "ALL_SCHEMES"]

TRAFFIC_TYPES = ("udp", "tcp_download", "tcp_bidir")


@dataclass(frozen=True)
class FairnessResult:
    scheme: Scheme
    #: Jain's index per traffic type.
    jain: Dict[str, float]


def run_one(
    scheme: Scheme,
    traffic: str,
    duration_s: float,
    warmup_s: float,
    seed: int,
    account_rx: bool = True,
) -> float:
    config = APConfig(account_rx_airtime=account_rx)
    testbed = Testbed(
        three_station_rates(),
        TestbedOptions(scheme=scheme, seed=seed, ap_config=config),
    )
    if traffic == "udp":
        saturating_udp_download(testbed)
    elif traffic == "tcp_download":
        tcp_download(testbed)
    elif traffic == "tcp_bidir":
        tcp_bidir(testbed)
    else:
        raise ValueError(f"unknown traffic type {traffic!r}")
    testbed.run(duration_s, warmup_s)
    stations = sorted(testbed.stations)
    return jain_index(
        testbed.tracker.airtime_us.get(i, 0.0) for i in stations
    )


# Backwards-compatible alias for the pre-runner private name.
_run_one = run_one


def specs(
    schemes: Sequence[Scheme] = ALL_SCHEMES,
    traffic_types: Sequence[str] = TRAFFIC_TYPES,
    duration_s: float = 10.0,
    warmup_s: float = 3.0,
    seed: int = 1,
    account_rx: bool = True,
) -> List[RunSpec]:
    """One spec per (scheme, traffic type) cell."""
    return [
        RunSpec.make(
            "repro.experiments.fairness_index:run_one",
            label=f"jain/{scheme.value}/{traffic}",
            scheme=scheme,
            traffic=traffic,
            duration_s=duration_s,
            warmup_s=warmup_s,
            seed=seed,
            account_rx=account_rx,
        )
        for scheme in schemes
        for traffic in traffic_types
    ]


def run(
    schemes: Sequence[Scheme] = ALL_SCHEMES,
    traffic_types: Sequence[str] = TRAFFIC_TYPES,
    duration_s: float = 10.0,
    warmup_s: float = 3.0,
    seed: int = 1,
    account_rx: bool = True,
    runner: Optional[Runner] = None,
) -> List[FairnessResult]:
    values = execute(
        specs(schemes, traffic_types, duration_s, warmup_s, seed, account_rx),
        runner,
    )
    cells = iter(values)
    results = []
    for scheme in schemes:
        jain = {traffic: next(cells) for traffic in traffic_types}
        results.append(FairnessResult(scheme=scheme, jain=jain))
    return results


def format_table(results: Sequence[FairnessResult]) -> str:
    lines = ["Figure 6 — Jain's fairness index of station airtime"]
    traffic_types = list(results[0].jain) if results else []
    header = f"{'Scheme':>16}" + "".join(f" {t:>13}" for t in traffic_types)
    lines.append(header)
    for result in results:
        row = f"{result.scheme.value:>16}" + "".join(
            f" {result.jain[t]:13.3f}" for t in traffic_types
        )
        lines.append(row)
    return "\n".join(lines)
