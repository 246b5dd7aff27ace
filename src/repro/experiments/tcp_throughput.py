"""Figure 7: per-station throughput for TCP download traffic.

Fast stations gain throughput as fairness improves; the slow station
loses some; the network total rises (FIFO lowest, Airtime highest).
``bidirectional=True`` reproduces the online-appendix variant with
simultaneous uploads (same pattern, higher variance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.config import three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions, scheme_specs
from repro.experiments.workloads import tcp_bidir, tcp_download
from repro.mac.ap import ALL_SCHEMES, Scheme
from repro.runner import RunSpec

__all__ = ["TcpThroughputResult", "run_scheme", "specs", "format_table",
           "ALL_SCHEMES"]


@dataclass(frozen=True)
class TcpThroughputResult:
    scheme: Scheme
    bidirectional: bool
    #: Download goodput per station, Mbps.
    download_mbps: Dict[int, float]
    #: Upload goodput per station, Mbps (bidirectional runs only).
    upload_mbps: Dict[int, float]

    @property
    def total_mbps(self) -> float:
        return sum(self.download_mbps.values()) + sum(self.upload_mbps.values())

    @property
    def average_mbps(self) -> float:
        count = len(self.download_mbps) or 1
        return sum(self.download_mbps.values()) / count


def run_scheme(
    scheme: Scheme,
    duration_s: float = 15.0,
    warmup_s: float = 5.0,
    seed: int = 1,
    bidirectional: bool = False,
) -> TcpThroughputResult:
    testbed = Testbed(three_station_rates(), TestbedOptions(scheme=scheme, seed=seed))
    if bidirectional:
        pairs = tcp_bidir(testbed)
        testbed.run(duration_s, warmup_s)
        download = {
            i: pair["down"].window_throughput_bps() / 1e6
            for i, pair in pairs.items()
        }
        upload = {
            i: pair["up"].window_throughput_bps() / 1e6
            for i, pair in pairs.items()
        }
    else:
        conns = tcp_download(testbed)
        testbed.run(duration_s, warmup_s)
        download = {
            i: conn.window_throughput_bps() / 1e6 for i, conn in conns.items()
        }
        upload = {}
    return TcpThroughputResult(
        scheme=scheme,
        bidirectional=bidirectional,
        download_mbps=download,
        upload_mbps=upload,
    )


def specs(
    schemes: Sequence[Scheme] = ALL_SCHEMES,
    *,
    duration_s: float,
    warmup_s: float,
    seed: int = 1,
    bidirectional: bool = False,
) -> List[RunSpec]:
    return scheme_specs(
        "tcp_throughput", "tcp", schemes, duration_s=duration_s,
        warmup_s=warmup_s, seed=seed, bidirectional=bidirectional)


def format_table(results: Sequence[TcpThroughputResult]) -> str:
    lines = ["Figure 7 — TCP download throughput (Mbps)"]
    lines.append(
        f"{'Scheme':>16} {'Fast1':>7} {'Fast2':>7} {'Slow':>7} {'Avg':>7} {'Total':>7}"
    )
    for result in results:
        d = result.download_mbps
        lines.append(
            f"{result.scheme.value:>16} "
            f"{d.get(0, 0.0):7.1f} {d.get(1, 0.0):7.1f} {d.get(2, 0.0):7.1f} "
            f"{result.average_mbps:7.1f} {result.total_mbps:7.1f}"
        )
    return "\n".join(lines)
