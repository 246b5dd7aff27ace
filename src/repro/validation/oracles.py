"""Metamorphic and dominance oracles (leg 2 of the validation subsystem).

Scheme-independent properties any correct run must satisfy, checkable
without knowing the "right" numbers:

* **packet conservation** — the PR-3 teardown audit balanced exactly;
* **share normalisation** — airtime shares sum to 1 (or are all zero);
* **scale invariance** — doubling the simulated time preserves
  steady-state per-station rates within tolerance;
* **rate monotonicity** — raising one station's MCS never lowers that
  station's throughput under airtime fairness (equal share × faster
  link);
* **cross-scheme dominance** — airtime fairness never yields a lower
  Jain index than FIFO, and the FQ schemes never give sparse (ping)
  traffic a worse P95 latency than FIFO does;
* **baseline property** (Tan & Guttag) — under airtime fairness a
  station in a mixed-rate cell gets the goodput it gets in a cell of the
  same size where every station runs at its rate.

The pure ``check_*`` functions score metrics that were produced
elsewhere; the ``*_verdict`` drivers actually run the scenario pairs
(through the parallel runner when one is supplied).  The Hypothesis
fuzzer in ``tests/test_oracles.py`` drives :func:`fuzz_verdicts`, which
runs short random scenarios with the PR-3 watchdogs armed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.stats import percentile
from repro.mac.ap import Scheme
from repro.runner import Runner, RunSpec, execute
from repro.validation.matrix import CellMetrics, run_cell

__all__ = [
    "OracleVerdict",
    "check_conservation",
    "check_share_normalisation",
    "check_scale_invariance",
    "check_rate_monotonicity",
    "check_jain_dominance",
    "check_latency_dominance",
    "check_baseline_property",
    "fuzz_verdicts",
    "scale_invariance_verdict",
    "rate_monotonicity_verdict",
    "dominance_verdicts",
    "baseline_property_verdict",
    "standard_verdicts",
]


@dataclass(frozen=True)
class OracleVerdict:
    """One oracle's judgement of one run (or pair of runs)."""

    oracle: str
    ok: bool
    detail: str

    def __str__(self) -> str:
        return f"[{'ok' if self.ok else 'FAIL'}] {self.oracle}: {self.detail}"


# ----------------------------------------------------------------------
# Pure checks over already-produced metrics
# ----------------------------------------------------------------------
def check_conservation(metrics: CellMetrics) -> OracleVerdict:
    """Downlink packet conservation balanced exactly (PR-3 audit)."""
    ok = metrics.conservation_balance == 0 and metrics.stall_violations == 0
    return OracleVerdict(
        "conservation", ok,
        f"balance={metrics.conservation_balance}, "
        f"stalls={metrics.stall_violations}",
    )


def check_share_normalisation(metrics: CellMetrics,
                              tol: float = 1e-6) -> OracleVerdict:
    """Airtime shares sum to 1 (or all zero when nothing transmitted)."""
    total = sum(metrics.airtime_shares.values())
    ok = abs(total - 1.0) <= tol or total == 0.0
    jain_ok = 0.0 < metrics.jain_airtime <= 1.0 + 1e-9
    return OracleVerdict(
        "share_normalisation", ok and jain_ok,
        f"sum(shares)={total:.6f}, jain={metrics.jain_airtime:.4f}",
    )


def check_scale_invariance(
    base: CellMetrics,
    scaled: CellMetrics,
    rel_tol: float = 0.15,
) -> OracleVerdict:
    """Longer windows preserve per-station steady-state rates.

    Saturated runs are stationary after warm-up, so throughput measured
    over T and k·T must agree within ``rel_tol`` — the classic
    metamorphic relation that catches warm-up leakage and accounting
    that scales with the window instead of with time.
    """
    worst = 0.0
    worst_station = None
    for station, rate in base.throughput_mbps.items():
        other = scaled.throughput_mbps.get(station, 0.0)
        floor = max(rate, other, 0.1)  # Mbps noise floor
        err = abs(rate - other) / floor
        if err > worst:
            worst, worst_station = err, station
    return OracleVerdict(
        "scale_invariance", worst <= rel_tol,
        f"worst per-station rate drift {worst:.1%} "
        f"(station {worst_station}, tol {rel_tol:.0%})",
    )


def check_rate_monotonicity(
    base: CellMetrics,
    boosted: CellMetrics,
    station: int,
    slack: float = 0.05,
) -> OracleVerdict:
    """Raising one station's MCS never lowers its airtime-fair throughput.

    Under airtime fairness the boosted station keeps its 1/N share but
    moves more bits per second of airtime, so its throughput must not
    drop (``slack`` absorbs window-quantisation noise).
    """
    before = base.throughput_mbps.get(station, 0.0)
    after = boosted.throughput_mbps.get(station, 0.0)
    ok = after >= before * (1.0 - slack)
    return OracleVerdict(
        "rate_monotonicity", ok,
        f"station {station}: {before:.2f} -> {after:.2f} Mbps after MCS "
        f"boost (must not drop more than {slack:.0%})",
    )


def check_jain_dominance(
    fifo: CellMetrics,
    airtime: CellMetrics,
    margin: float = 0.01,
) -> OracleVerdict:
    """Airtime fairness never yields a lower Jain index than FIFO.

    Tan & Guttag's rate anomaly makes FIFO airtime-unfair whenever rates
    differ; the airtime scheduler exists to fix exactly that, so its
    Jain index must dominate (``margin`` absorbs ties on homogeneous
    mixes where both sit at ~1.0).
    """
    ok = airtime.jain_airtime >= fifo.jain_airtime - margin
    return OracleVerdict(
        "jain_dominance", ok,
        f"airtime Jain {airtime.jain_airtime:.4f} vs "
        f"FIFO Jain {fifo.jain_airtime:.4f}",
    )


def check_latency_dominance(
    fifo_p95_ms: float,
    fq_p95_ms: float,
    scheme_name: str,
    slack_ms: float = 2.0,
) -> OracleVerdict:
    """FQ schemes never give sparse traffic a worse P95 latency than FIFO.

    Sparse (ping) flows ride the FQ new-flow priority lane instead of
    queueing behind bulk backlog, which is the paper's headline latency
    result (Figures 1/4); ``slack_ms`` absorbs scheduling jitter.
    """
    ok = fq_p95_ms <= fifo_p95_ms + slack_ms
    return OracleVerdict(
        "latency_dominance", ok,
        f"{scheme_name} sparse P95 {fq_p95_ms:.1f} ms vs "
        f"FIFO {fifo_p95_ms:.1f} ms",
    )


def check_baseline_property(
    mixed: CellMetrics,
    homogeneous: Sequence[CellMetrics],
    band: float = 0.05,
) -> OracleVerdict:
    """Each station's goodput in ``mixed`` is within ``1 ± band`` of its
    goodput in the ``homogeneous`` cell whose stations all run at its MCS.

    Tan & Guttag ("Time-based Fairness Improves Performance in
    Multi-rate WLANs", USENIX ATC 2004): with equal airtime shares a
    station's goodput depends only on its own rate, so the expected value
    comes from a second run, not from a model of this code.  Schemes that
    share transmission opportunities instead of airtime (FIFO, FQ-MAC)
    hand the slow station more than its share and break it.
    """
    by_mcs = {cell.mcs_indices[0]: cell for cell in homogeneous}
    ratios = []
    for station, index in enumerate(mixed.mcs_indices):
        alone = by_mcs[index].throughput_mbps.get(station, 0.0)
        got = mixed.throughput_mbps.get(station, 0.0)
        ratios.append(got / alone if alone else math.inf)
    return OracleVerdict(
        "baseline_property", all(abs(r - 1.0) <= band for r in ratios),
        "mixed/homogeneous goodput per station "
        + " / ".join(f"{r:.3f}" for r in ratios) + f" (band ±{band:.0%})",
    )


# ----------------------------------------------------------------------
# Drivers that run the scenario pairs
# ----------------------------------------------------------------------
def _cell_spec(mcs_indices: Sequence[int], scheme: Scheme, label: str,
               duration_s: float, warmup_s: float, seed: int,
               payload_bytes: int = 1500) -> RunSpec:
    return RunSpec.make(
        "repro.validation.matrix:run_cell",
        label=label,
        mcs_indices=tuple(mcs_indices),
        payload_bytes=payload_bytes,
        duration_s=duration_s,
        warmup_s=warmup_s,
        seed=seed,
        scheme=scheme,
    )


def fuzz_verdicts(
    mcs_indices: Tuple[int, ...],
    scheme: Scheme,
    payload_bytes: int = 1500,
    duration_s: float = 0.4,
    seed: int = 1,
) -> List[OracleVerdict]:
    """Run one short random scenario with the watchdogs armed.

    ``strict=True`` arms the PR-3 invariant watchdogs (conservation
    audit, stall detector, zero-delay loop guard), so a violation raises
    before the oracles even get to look at the metrics.
    """
    metrics = run_cell(
        mcs_indices=tuple(mcs_indices),
        payload_bytes=payload_bytes,
        duration_s=duration_s,
        warmup_s=duration_s / 4,
        seed=seed,
        scheme=scheme,
        strict=True,
    )
    verdicts = [
        check_conservation(metrics),
        check_share_normalisation(metrics),
    ]
    total_phy_mbps = sum(
        _mcs_mbps(i) for i in mcs_indices
    )
    throughput = sum(metrics.throughput_mbps.values())
    verdicts.append(OracleVerdict(
        "throughput_bounds",
        0.0 <= throughput <= total_phy_mbps,
        f"total {throughput:.2f} Mbps within [0, {total_phy_mbps:.1f}]",
    ))
    return verdicts


def _mcs_mbps(index: int) -> float:
    from repro.phy.rates import mcs
    return mcs(index).mbps


def scale_invariance_verdict(
    mcs_indices: Sequence[int] = (15, 15, 0),
    duration_s: float = 1.0,
    factor: float = 2.0,
    seed: int = 1,
    runner: Optional[Runner] = None,
) -> OracleVerdict:
    """Run the same scenario at T and ``factor``·T and compare rates."""
    base, scaled = execute(
        [
            _cell_spec(mcs_indices, Scheme.AIRTIME, "oracle/scale/base",
                       duration_s, 0.5, seed),
            _cell_spec(mcs_indices, Scheme.AIRTIME, "oracle/scale/long",
                       duration_s * factor, 0.5, seed),
        ],
        runner,
    )
    if base is None or scaled is None:
        return OracleVerdict("scale_invariance", False, "run failed")
    return check_scale_invariance(base, scaled)


def rate_monotonicity_verdict(
    mcs_indices: Sequence[int] = (15, 15, 0),
    station: int = 2,
    boosted_mcs: int = 4,
    duration_s: float = 1.0,
    seed: int = 1,
    runner: Optional[Runner] = None,
) -> OracleVerdict:
    """Boost one station's MCS and require its throughput not to drop."""
    boosted_indices = list(mcs_indices)
    if boosted_mcs <= boosted_indices[station]:
        raise ValueError("boosted_mcs must raise the station's MCS")
    boosted_indices[station] = boosted_mcs
    base, boosted = execute(
        [
            _cell_spec(mcs_indices, Scheme.AIRTIME, "oracle/mono/base",
                       duration_s, 0.5, seed),
            _cell_spec(boosted_indices, Scheme.AIRTIME, "oracle/mono/boost",
                       duration_s, 0.5, seed),
        ],
        runner,
    )
    if base is None or boosted is None:
        return OracleVerdict("rate_monotonicity", False, "run failed")
    return check_rate_monotonicity(base, boosted, station)


def dominance_verdicts(
    duration_s: float = 2.0,
    warmup_s: float = 0.5,
    seed: int = 1,
    runner: Optional[Runner] = None,
) -> List[OracleVerdict]:
    """Cross-scheme dominance: Jain (UDP airtime) and sparse P95 latency."""
    fifo, airtime = execute(
        [
            _cell_spec((15, 15, 0), Scheme.FIFO, "oracle/jain/fifo",
                       duration_s, warmup_s, seed),
            _cell_spec((15, 15, 0), Scheme.AIRTIME, "oracle/jain/airtime",
                       duration_s, warmup_s, seed),
        ],
        runner,
    )
    verdicts: List[OracleVerdict] = []
    if fifo is None or airtime is None:
        verdicts.append(OracleVerdict("jain_dominance", False, "run failed"))
    else:
        verdicts.append(check_jain_dominance(fifo, airtime))

    # Sparse latency: ping P95 of the fast stations under bulk TCP load,
    # per scheme (the Figures 1/4 comparison).
    from repro.experiments import latency

    schemes = (Scheme.FIFO, Scheme.FQ_CODEL, Scheme.FQ_MAC)
    results = execute(
        latency.specs(schemes, duration_s=max(duration_s, 2.5),
                      warmup_s=max(warmup_s, 1.0), seed=seed),
        runner,
    )
    by_scheme = {r.scheme: r for r in results if r is not None}
    fifo_latency = by_scheme.get(Scheme.FIFO)
    if fifo_latency is None:
        verdicts.append(OracleVerdict("latency_dominance", False,
                                      "FIFO latency run failed"))
        return verdicts
    fifo_p95 = _fast_p95_ms(fifo_latency)
    for scheme in (Scheme.FQ_CODEL, Scheme.FQ_MAC):
        result = by_scheme.get(scheme)
        if result is None:
            verdicts.append(OracleVerdict("latency_dominance", False,
                                          f"{scheme.value} run failed"))
            continue
        verdicts.append(check_latency_dominance(
            fifo_p95, _fast_p95_ms(result), scheme.value,
        ))
    return verdicts


def baseline_property_verdict(
    mcs_indices: Sequence[int] = (15, 15, 0),
    duration_s: float = 1.5,
    warmup_s: float = 0.5,
    seed: int = 1,
    runner: Optional[Runner] = None,
) -> OracleVerdict:
    """Run the mixed cell and one homogeneous cell per rate under Airtime."""
    cells = [tuple(mcs_indices)] + [
        (index,) * len(mcs_indices) for index in dict.fromkeys(mcs_indices)]
    metrics = execute(
        [_cell_spec(cell, Scheme.AIRTIME,
                    "oracle/baseline/" + "-".join(map(str, cell)),
                    duration_s, warmup_s, seed) for cell in cells],
        runner,
    )
    if any(m is None for m in metrics):
        return OracleVerdict("baseline_property", False, "run failed")
    return check_baseline_property(metrics[0], metrics[1:])


def _fast_p95_ms(result) -> float:
    """P95 ping RTT over the fast stations of a latency run."""
    from repro.experiments.config import FAST_STATIONS

    merged: List[float] = []
    for idx in FAST_STATIONS:
        merged.extend(result.rtts_ms.get(idx, []))
    return percentile(merged, 95)


def standard_verdicts(
    seed: int = 1,
    runner: Optional[Runner] = None,
) -> List[OracleVerdict]:
    """The full oracle battery at its default scenarios (CLI entry)."""
    verdicts = [
        scale_invariance_verdict(seed=seed, runner=runner),
        rate_monotonicity_verdict(seed=seed, runner=runner),
    ]
    verdicts.extend(dominance_verdicts(seed=seed, runner=runner))
    verdicts.append(baseline_property_verdict(seed=seed, runner=runner))
    return verdicts
