"""Figure 8: the sparse-station optimisation.

A fourth (virtual) fast station receives only ping traffic while the
other three receive bulk traffic.  With the optimisation enabled, the
sparse station enters the airtime scheduler's ``new_stations`` list and
gets one round of priority, shaving 10–15% off its median RTT; disabled,
it queues behind the bulk stations' aggregates.  Both UDP and TCP bulk
variants are measured, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.stats import Summary, summarize
from repro.experiments.config import SPARSE_STATION, four_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.experiments.workloads import add_pings, saturating_udp_download, tcp_download
from repro.mac.ap import APConfig, Scheme
from repro.runner import RunSpec

__all__ = ["SparseResult", "run_case", "specs", "format_table"]


@dataclass(frozen=True)
class SparseResult:
    bulk_traffic: str
    sparse_enabled: bool
    rtts_ms: List[float]

    def summary(self) -> Summary:
        return summarize(self.rtts_ms)


def run_case(
    bulk_traffic: str,
    sparse_enabled: bool,
    duration_s: float = 15.0,
    warmup_s: float = 5.0,
    seed: int = 1,
) -> SparseResult:
    config = APConfig(sparse_enabled=sparse_enabled)
    testbed = Testbed(
        four_station_rates(),
        TestbedOptions(scheme=Scheme.AIRTIME, seed=seed, ap_config=config),
    )
    bulk_stations = [0, 1, 2]
    if bulk_traffic == "udp":
        saturating_udp_download(testbed, bulk_stations)
    elif bulk_traffic == "tcp":
        tcp_download(testbed, bulk_stations)
    else:
        raise ValueError(f"unknown bulk traffic {bulk_traffic!r}")
    pings = add_pings(testbed, [SPARSE_STATION])
    testbed.run(duration_s, warmup_s)
    return SparseResult(
        bulk_traffic=bulk_traffic,
        sparse_enabled=sparse_enabled,
        rtts_ms=pings[SPARSE_STATION].rtts_ms,
    )


def specs(
    *,
    duration_s: float,
    warmup_s: float,
    seed: int = 1,
) -> List[RunSpec]:
    """One spec per (bulk traffic, optimisation on/off) case."""
    return [
        RunSpec.make(
            "repro.experiments.sparse:run_case",
            label=f"sparse/{bulk}/{'on' if enabled else 'off'}",
            bulk_traffic=bulk,
            sparse_enabled=enabled,
            duration_s=duration_s,
            warmup_s=warmup_s,
            seed=seed,
        )
        for bulk in ("udp", "tcp")
        for enabled in (True, False)
    ]


def format_table(results: Sequence[SparseResult]) -> str:
    lines = ["Figure 8 — sparse-station RTT (ms), optimisation on vs off"]
    lines.append(
        f"{'bulk':>5} {'sparse opt':>11} {'p10':>8} {'median':>8} {'p90':>8}"
    )
    for result in results:
        s = result.summary()
        state = "enabled" if result.sparse_enabled else "disabled"
        lines.append(
            f"{result.bulk_traffic:>5} {state:>11} "
            f"{s.p10:8.2f} {s.median:8.2f} {s.p90:8.2f}"
        )
    # Median improvement per bulk type.
    by_key = {(r.bulk_traffic, r.sparse_enabled): r for r in results}
    for bulk in ("udp", "tcp"):
        on = by_key.get((bulk, True))
        off = by_key.get((bulk, False))
        if on and off and off.summary().median > 0:
            gain = 1.0 - on.summary().median / off.summary().median
            lines.append(f"median improvement ({bulk}): {gain:.1%}")
    return "\n".join(lines)
