"""Figures 9 and 10 (and the Section 4.1.5 totals): scaling to 30 stations.

The third-party testbed: 30 clients on a 2.4 GHz HT20 channel, one pinned
to the 1 Mbps legacy rate, one receiving only pings, the other 28 running
bulk TCP downloads alongside the slow station.  Headline results:

* FQ-CoDel/FQ-MAC: the 1 Mbps station grabs ~2/3 of the airtime despite
  28 competitors; Airtime gives all 29 equal shares (Figure 9);
* total throughput rises ~5.4x (3.3 -> 17.7 Mbps in the paper);
* fast-station latency drops, slow-station latency rises an order of
  magnitude, mean latency halves (Figure 10);
* the sparse station's ping improves ~2x under Airtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.stats import Summary, summarize
from repro.experiments.config import thirty_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions, scheme_specs
from repro.experiments.workloads import add_pings, tcp_download
from repro.mac.ap import Scheme
from repro.runner import RunSpec, Runner, execute

__all__ = ["ScalingResult", "run", "run_scheme", "specs", "format_table",
           "SCALING_SCHEMES"]

#: The 30-station test skipped FIFO (as the paper did).
SCALING_SCHEMES = (Scheme.FQ_CODEL, Scheme.FQ_MAC, Scheme.AIRTIME)

SLOW = 0
SPARSE = 29
FAST = tuple(range(1, 29))


@dataclass(frozen=True)
class ScalingResult:
    scheme: Scheme
    airtime_shares: Dict[int, float]
    throughput_mbps: Dict[int, float]
    slow_rtts_ms: List[float]
    fast_rtts_ms: List[float]
    sparse_rtts_ms: List[float]

    @property
    def total_mbps(self) -> float:
        return sum(self.throughput_mbps.values())

    @property
    def slow_share(self) -> float:
        return self.airtime_shares.get(SLOW, 0.0)

    def summaries(self) -> Dict[str, Summary]:
        return {
            "slow": summarize(self.slow_rtts_ms),
            "fast": summarize(self.fast_rtts_ms),
            "sparse": summarize(self.sparse_rtts_ms),
        }


def run_scheme(
    scheme: Scheme,
    duration_s: float = 20.0,
    warmup_s: float = 5.0,
    seed: int = 1,
) -> ScalingResult:
    testbed = Testbed(
        thirty_station_rates(), TestbedOptions(scheme=scheme, seed=seed)
    )
    bulk = [SLOW, *FAST]
    tcp_download(testbed, bulk)
    pings = add_pings(testbed, [SLOW, FAST[0], SPARSE])
    window_us = testbed.run(duration_s, warmup_s)

    contending = [SLOW, *FAST]  # the sparse station is excluded, as in Fig 9
    return ScalingResult(
        scheme=scheme,
        airtime_shares=testbed.tracker.airtime_shares(contending),
        throughput_mbps={
            i: testbed.tracker.throughput_bps(i, window_us) / 1e6 for i in bulk
        },
        slow_rtts_ms=pings[SLOW].rtts_ms,
        fast_rtts_ms=pings[FAST[0]].rtts_ms,
        sparse_rtts_ms=pings[SPARSE].rtts_ms,
    )


def specs(
    schemes: Sequence[Scheme] = SCALING_SCHEMES,
    duration_s: float = 20.0,
    warmup_s: float = 5.0,
    seed: int = 1,
) -> List[RunSpec]:
    """One spec per scheme; each run simulates all 30 stations."""
    return scheme_specs("scaling", "scaling", schemes, duration_s=duration_s,
                        warmup_s=warmup_s, seed=seed)


def run(
    schemes: Sequence[Scheme] = SCALING_SCHEMES,
    duration_s: float = 20.0,
    warmup_s: float = 5.0,
    seed: int = 1,
    runner: Optional[Runner] = None,
) -> List[ScalingResult]:
    return execute(specs(schemes, duration_s, warmup_s, seed), runner)


def format_table(results: Sequence[ScalingResult]) -> str:
    lines = ["Figures 9/10 — 30-station TCP test"]
    lines.append(
        f"{'Scheme':>16} {'slow share':>11} {'max fast':>9} {'total Mbps':>11} "
        f"{'slow med ms':>12} {'fast med ms':>12} {'sparse med':>11}"
    )
    for result in results:
        fast_shares = [result.airtime_shares[i] for i in FAST]
        s = result.summaries()
        lines.append(
            f"{result.scheme.value:>16} {result.slow_share:11.1%} "
            f"{max(fast_shares):9.2%} {result.total_mbps:11.1f} "
            f"{s['slow'].median:12.1f} {s['fast'].median:12.1f} "
            f"{s['sparse'].median:11.1f}"
        )
    if len(results) >= 2:
        base = results[0].total_mbps
        final = results[-1].total_mbps
        if base > 0:
            lines.append(
                f"throughput gain {results[-1].scheme.value} vs "
                f"{results[0].scheme.value}: {final / base:.1f}x"
            )
    return "\n".join(lines)
