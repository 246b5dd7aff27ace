"""Table 2: VoIP quality (MOS) and total throughput, VO vs BE marking.

The scenario (Section 4.2.1): the slow station receives a VoIP stream
*and* a bulk TCP download; three fast stations (the two physical ones
plus the virtual fourth) receive bulk TCP downloads.  The voice packets
are marked either BE or VO, and the wire adds a baseline one-way delay of
5 ms or 50 ms.  Reported per cell: the E-model MOS of the voice stream
and the total network throughput.

The paper's headline: FQ-MAC and Airtime achieve better MOS with
*best-effort* voice than the stock kernel achieves with VO-marked voice —
applications no longer depend on DiffServ markings surviving the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.packet import AccessCategory
from repro.experiments.config import SLOW_STATION, four_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.experiments.workloads import tcp_download
from repro.mac.ap import ALL_SCHEMES, Scheme
from repro.runner import RunSpec
from repro.traffic.voip import VoipFlow, VoipStats

__all__ = ["VoipResult", "run_case", "specs", "format_table",
           "ALL_SCHEMES"]

BASE_DELAYS_MS = (5.0, 50.0)


@dataclass(frozen=True)
class VoipResult:
    scheme: Scheme
    qos: str  # 'VO' or 'BE'
    base_delay_ms: float
    voip: VoipStats
    total_throughput_mbps: float


def run_case(
    scheme: Scheme,
    qos: str,
    base_delay_ms: float,
    duration_s: float = 15.0,
    warmup_s: float = 5.0,
    seed: int = 1,
) -> VoipResult:
    if qos not in ("VO", "BE"):
        raise ValueError("qos must be 'VO' or 'BE'")
    ac = AccessCategory.VO if qos == "VO" else AccessCategory.BE
    testbed = Testbed(
        four_station_rates(),
        TestbedOptions(
            scheme=scheme,
            seed=seed,
            wire_delay_us=base_delay_ms * 1000.0,
        ),
    )
    conns = tcp_download(testbed)  # bulk to all four stations
    voice = VoipFlow(
        testbed.sim, testbed.server, testbed.stations[SLOW_STATION], ac=ac
    ).start()
    testbed.run(duration_s, warmup_s)
    # Measure throughput over the loaded window, then stop the voice
    # stream and let in-flight packets drain for two seconds so they are
    # not miscounted as lost (the testbed tools stop and flush likewise).
    total = sum(c.window_throughput_bps() for c in conns.values()) / 1e6
    voice.stop()
    testbed.sim.run(until_us=testbed.sim.now + 2_000_000.0)
    return VoipResult(
        scheme=scheme,
        qos=qos,
        base_delay_ms=base_delay_ms,
        voip=voice.stats(),
        total_throughput_mbps=total,
    )


def specs(
    schemes: Sequence[Scheme] = ALL_SCHEMES,
    base_delays_ms: Sequence[float] = BASE_DELAYS_MS,
    *,
    duration_s: float,
    warmup_s: float,
    seed: int = 1,
) -> List[RunSpec]:
    """One spec per (scheme, QoS marking, base delay) cell of Table 2."""
    return [
        RunSpec.make(
            "repro.experiments.voip:run_case",
            label=f"voip/{scheme.value}/{qos}/{delay:g}ms",
            scheme=scheme,
            qos=qos,
            base_delay_ms=delay,
            duration_s=duration_s,
            warmup_s=warmup_s,
            seed=seed,
        )
        for scheme in schemes
        for qos in ("VO", "BE")
        for delay in base_delays_ms
    ]


def format_table(results: Sequence[VoipResult]) -> str:
    """Render in the layout of Table 2 (MOS and throughput per cell)."""
    delays = sorted({r.base_delay_ms for r in results})
    lines = ["Table 2 — VoIP MOS and total throughput (Mbps)"]
    header = f"{'Scheme':>16} {'QoS':>4}"
    for delay in delays:
        header += f" {f'{delay:g}ms MOS':>9} {f'{delay:g}ms Thrp':>10}"
    lines.append(header)
    by_key: Dict[tuple, VoipResult] = {
        (r.scheme, r.qos, r.base_delay_ms): r for r in results
    }
    schemes = []
    for r in results:
        if r.scheme not in schemes:
            schemes.append(r.scheme)
    for scheme in schemes:
        for qos in ("VO", "BE"):
            row = f"{scheme.value:>16} {qos:>4}"
            for delay in delays:
                cell = by_key.get((scheme, qos, delay))
                if cell is None:
                    row += f" {'—':>9} {'—':>10}"
                else:
                    row += (
                        f" {cell.voip.mos:9.2f}"
                        f" {cell.total_throughput_mbps:10.1f}"
                    )
            lines.append(row)
    return "\n".join(lines)
