"""Metamorphic and dominance oracles (leg 2 of the validation subsystem).

Scheme-independent properties any correct run must satisfy, checkable
without knowing the "right" numbers:

* **packet conservation** — the teardown audit balanced exactly;
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

Each oracle is a :class:`~repro.validation.verdict.Claim`: the
single-run ones read one run's :class:`CellMetrics`, the others a dict
of named runs.  The ``*_verdict(s)`` drivers run the scenarios (through
the parallel runner when one is supplied) and judge them; a run that
produced no value makes its oracle ✗ ``run failed``.  The Hypothesis
fuzzer in ``tests/test_oracles.py`` drives :func:`fuzz_verdicts`, which
runs short random scenarios with the watchdogs armed.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import percentile
from repro.mac.ap import Scheme
from repro.phy.rates import mcs
from repro.runner import Runner, RunSpec, execute
from repro.validation.matrix import CellMetrics, cell_runspec, run_cell
from repro.validation.verdict import Claim, NoSamples, Quantity, Verdict

__all__ = [
    "BASELINE_PROPERTY",
    "CONSERVATION",
    "JAIN_DOMINANCE",
    "SCALE_INVARIANCE",
    "SHARE_NORMALISATION",
    "THROUGHPUT_BOUNDS",
    "baseline_property_verdict",
    "dominance_verdicts",
    "fuzz_verdicts",
    "latency_dominance",
    "rate_monotonicity",
    "rate_monotonicity_verdict",
    "scale_invariance_verdict",
    "standard_verdicts",
]

FIFO, AIRTIME = Scheme.FIFO, Scheme.AIRTIME


# ----------------------------------------------------------------------
# The oracles, as claims over already-produced metrics
# ----------------------------------------------------------------------
# Downlink packet conservation balanced exactly (the teardown audit).
CONSERVATION = Claim(
    "conservation: downlink packets balance and nothing stalls",
    lambda m: f"balance={m.conservation_balance}, "
              f"stalls={m.stall_violations}",
    Quantity("|conservation balance|", lambda m: abs(m.conservation_balance),
             "<=", 0),
    Quantity("stall violations", lambda m: m.stall_violations, "<=", 0))


def _share_sum(m: CellMetrics) -> float:
    return sum(m.airtime_shares.values())


# Airtime shares sum to 1 (or all zero when nothing transmitted).
SHARE_NORMALISATION = Claim(
    "share_normalisation: airtime shares sum to 1, Jain index in (0, 1]",
    lambda m: f"sum(shares)={_share_sum(m):.6f}, jain={m.jain_airtime:.4f}",
    Quantity("|sum(shares) − 1|",
             lambda m: abs(_share_sum(m) - 1.0) if _share_sum(m) else 0.0,
             "<=", 1e-6),
    Quantity("jain", lambda m: m.jain_airtime, ">", 0.0),
    Quantity("jain", lambda m: m.jain_airtime, "<=", 1.0 + 1e-9))


def _total_mbps(m: CellMetrics) -> float:
    return sum(m.throughput_mbps.values())


def _phy_mbps(m: CellMetrics) -> float:
    return sum(mcs(i).mbps for i in m.mcs_indices)


# No run delivers more than its stations' PHY rates add up to.
THROUGHPUT_BOUNDS = Claim(
    "throughput_bounds: total throughput within [0, sum of PHY rates]",
    lambda m: f"total {_total_mbps(m):.2f} Mbps within "
              f"[0, {_phy_mbps(m):.1f}]",
    Quantity("total Mbps", _total_mbps, ">=", 0.0),
    Quantity("total − PHY Mbps", lambda m: _total_mbps(m) - _phy_mbps(m),
             "<=", 0.0))


def _drift(runs: Dict[str, CellMetrics]) -> Tuple[float, Optional[int]]:
    """The worst relative per-station rate drift from ``base`` to
    ``scaled``, and its station."""
    worst = 0.0
    worst_station = None
    for station, rate in runs["base"].throughput_mbps.items():
        other = runs["scaled"].throughput_mbps.get(station, 0.0)
        floor = max(rate, other, 0.1)  # Mbps noise floor
        err = abs(rate - other) / floor
        if err > worst:
            worst, worst_station = err, station
    return worst, worst_station


# Longer windows preserve per-station steady-state rates.  Saturated runs
# are stationary after warm-up, so throughput measured over T and k·T must
# agree within 15% — the classic metamorphic relation that catches
# warm-up leakage and accounting that scales with the window instead of
# with time.
SCALE_INVARIANCE = Claim(
    "scale_invariance: T and k·T give the same per-station rates",
    lambda r: "worst per-station rate drift {:.1%} (station {}, tol 15%)"
              .format(*_drift(r)),
    Quantity("worst rate drift", lambda r: _drift(r)[0], "<=", 0.15))


def rate_monotonicity(station: int) -> Claim:
    """Raising ``station``'s MCS never lowers its airtime-fair throughput.

    Under airtime fairness the boosted station keeps its 1/N share but
    moves more bits per second of airtime, so its throughput from
    ``base`` to ``boosted`` must not drop (5% absorbs window-quantisation
    noise).
    """
    def mbps(runs: Dict[str, CellMetrics], key: str) -> float:
        return runs[key].throughput_mbps.get(station, 0.0)

    return Claim(
        "rate_monotonicity: raising one station's MCS never lowers its "
        "throughput",
        lambda r: f"station {station}: {mbps(r, 'base'):.2f} -> "
                  f"{mbps(r, 'boosted'):.2f} Mbps after MCS boost (must not "
                  "drop more than 5%)",
        Quantity("boosted − 95% of base Mbps", lambda r:
                 mbps(r, "boosted") - mbps(r, "base") * 0.95, ">=", 0.0))


# Airtime fairness never yields a lower Jain index than FIFO.  Tan &
# Guttag's rate anomaly makes FIFO airtime-unfair whenever rates differ;
# the airtime scheduler exists to fix exactly that, so its Jain index
# must dominate (0.01 absorbs ties on homogeneous mixes where both sit at
# ~1.0).
JAIN_DOMINANCE = Claim(
    "jain_dominance: Airtime's Jain index is not below FIFO's",
    lambda r: f"airtime Jain {r[AIRTIME].jain_airtime:.4f} vs "
              f"FIFO Jain {r[FIFO].jain_airtime:.4f}",
    Quantity("Airtime − FIFO Jain", lambda r:
             r[AIRTIME].jain_airtime - r[FIFO].jain_airtime, ">=", -0.01))


def _fast_p95_ms(result) -> float:
    """P95 ping RTT over the fast stations of a latency run."""
    from repro.experiments.config import FAST_STATIONS

    merged: List[float] = []
    for idx in FAST_STATIONS:
        merged.extend(result.rtts_ms.get(idx, []))
    if not merged:
        raise NoSamples(f"no fast-station ping completed under "
                        f"{result.scheme.value}")
    return percentile(merged, 95)


def latency_dominance(scheme: Scheme) -> Claim:
    """FQ ``scheme`` never gives sparse traffic a worse P95 than FIFO.

    Sparse (ping) flows ride the FQ new-flow priority lane instead of
    queueing behind bulk backlog, which is the paper's headline latency
    result (Figures 1/4); 2 ms absorbs scheduling jitter.
    """
    return Claim(
        f"latency_dominance: {scheme.value} sparse P95 is not above FIFO's",
        lambda r: f"{scheme.value} sparse P95 {_fast_p95_ms(r[scheme]):.1f} "
                  f"ms vs FIFO {_fast_p95_ms(r[FIFO]):.1f} ms",
        Quantity(f"{scheme.value} − FIFO sparse P95 ms", lambda r:
                 _fast_p95_ms(r[scheme]) - _fast_p95_ms(r[FIFO]), "<=", 2.0))


def _baseline_ratios(runs: Dict[Any, CellMetrics]) -> List[float]:
    """Each station's goodput in ``runs["mixed"]`` over its goodput in the
    homogeneous run keyed by its MCS index."""
    mixed = runs["mixed"]
    ratios = []
    for station, index in enumerate(mixed.mcs_indices):
        alone = runs[index].throughput_mbps.get(station, 0.0)
        got = mixed.throughput_mbps.get(station, 0.0)
        ratios.append(got / alone if alone else math.inf)
    return ratios


# Each station's goodput in the mixed cell is within 1 ± 5% of its
# goodput in the homogeneous cell whose stations all run at its MCS.
# Tan & Guttag ("Time-based Fairness Improves Performance in Multi-rate
# WLANs", USENIX ATC 2004): with equal airtime shares a station's goodput
# depends only on its own rate, so the expected value comes from a second
# run, not from a model of this code.  Schemes that share transmission
# opportunities instead of airtime (FIFO, FQ-MAC) hand the slow station
# more than its share and break it.
BASELINE_PROPERTY = Claim(
    "baseline_property: a station's goodput is its goodput in a cell all "
    "at its rate",
    lambda r: "mixed/homogeneous goodput per station "
              + " / ".join(f"{x:.3f}" for x in _baseline_ratios(r))
              + " (band ±5%)",
    Quantity("max |mixed/homogeneous − 1|", lambda r: max(
        abs(x - 1.0) for x in _baseline_ratios(r)), "<=", 0.05))


# ----------------------------------------------------------------------
# Drivers that run the scenarios
# ----------------------------------------------------------------------
def _complete(runs: Dict) -> Optional[Dict]:
    """``runs``, or ``None`` when one of them produced no value."""
    return None if any(run is None for run in runs.values()) else runs


def _execute(specs: Dict[Any, RunSpec],
             runner: Optional[Runner]) -> Optional[Dict]:
    """Run ``specs`` and key each value like its spec (see
    :func:`_complete`)."""
    return _complete(dict(zip(specs, execute(list(specs.values()), runner))))


def fuzz_verdicts(
    mcs_indices: Tuple[int, ...],
    scheme: Scheme,
    payload_bytes: int = 1500,
    duration_s: float = 0.4,
    seed: int = 1,
) -> List[Verdict]:
    """Run one short random scenario with the watchdogs armed.

    ``strict=True`` arms the invariant watchdogs (conservation audit,
    stall detector, zero-delay loop guard), so a violation raises before
    the oracles even get to look at the metrics.
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
    return [claim.judge([metrics]) for claim in
            (CONSERVATION, SHARE_NORMALISATION, THROUGHPUT_BOUNDS)]


def scale_invariance_verdict(
    mcs_indices: Sequence[int] = (15, 15, 0),
    duration_s: float = 1.0,
    factor: float = 2.0,
    seed: int = 1,
    runner: Optional[Runner] = None,
) -> Verdict:
    """Run the same scenario at T and ``factor``·T and compare rates."""
    return SCALE_INVARIANCE.judge([_execute({
        "base": cell_runspec("oracle/scale/base", mcs_indices,
                             duration_s=duration_s, warmup_s=0.5, seed=seed),
        "scaled": cell_runspec("oracle/scale/long", mcs_indices,
                               duration_s=duration_s * factor, warmup_s=0.5,
                               seed=seed),
    }, runner)])


def rate_monotonicity_verdict(
    mcs_indices: Sequence[int] = (15, 15, 0),
    station: int = 2,
    boosted_mcs: int = 4,
    duration_s: float = 1.0,
    seed: int = 1,
    runner: Optional[Runner] = None,
) -> Verdict:
    """Boost one station's MCS and require its throughput not to drop."""
    boosted_indices = list(mcs_indices)
    if boosted_mcs <= boosted_indices[station]:
        raise ValueError("boosted_mcs must raise the station's MCS")
    boosted_indices[station] = boosted_mcs
    return rate_monotonicity(station).judge([_execute({
        "base": cell_runspec("oracle/mono/base", mcs_indices,
                             duration_s=duration_s, warmup_s=0.5, seed=seed),
        "boosted": cell_runspec("oracle/mono/boost", boosted_indices,
                                duration_s=duration_s, warmup_s=0.5,
                                seed=seed),
    }, runner)])


def dominance_verdicts(
    duration_s: float = 2.0,
    warmup_s: float = 0.5,
    seed: int = 1,
    runner: Optional[Runner] = None,
) -> List[Verdict]:
    """Cross-scheme dominance: Jain (UDP airtime) and sparse P95 latency."""
    verdicts = [JAIN_DOMINANCE.judge([_execute({
        scheme: cell_runspec(f"oracle/jain/{scheme.name.lower()}",
                             (15, 15, 0), scheme=scheme,
                             duration_s=duration_s, warmup_s=warmup_s,
                             seed=seed)
        for scheme in (FIFO, AIRTIME)}, runner)])]

    # Sparse latency: ping P95 of the fast stations under bulk TCP load,
    # per scheme (the Figures 1/4 comparison).
    from repro.experiments import latency

    schemes = (FIFO, Scheme.FQ_CODEL, Scheme.FQ_MAC)
    results = dict(zip(schemes, execute(
        latency.specs(schemes, duration_s=max(duration_s, 2.5),
                      warmup_s=max(warmup_s, 1.0), seed=seed),
        runner)))
    return verdicts + [
        latency_dominance(scheme).judge([_complete(
            {FIFO: results[FIFO], scheme: results[scheme]})])
        for scheme in schemes[1:]]


def baseline_property_verdict(
    mcs_indices: Sequence[int] = (15, 15, 0),
    duration_s: float = 1.5,
    warmup_s: float = 0.5,
    seed: int = 1,
    runner: Optional[Runner] = None,
) -> Verdict:
    """Run the mixed cell and one homogeneous cell per rate under Airtime."""
    cells = {"mixed": tuple(mcs_indices)}
    cells.update((index, (index,) * len(mcs_indices))
                 for index in dict.fromkeys(mcs_indices))
    return BASELINE_PROPERTY.judge([_execute({
        key: cell_runspec("oracle/baseline/" + "-".join(map(str, cell)),
                          cell, duration_s=duration_s, warmup_s=warmup_s,
                          seed=seed)
        for key, cell in cells.items()}, runner)])


def standard_verdicts(
    seed: int = 1,
    runner: Optional[Runner] = None,
) -> List[Verdict]:
    """The full oracle battery at its default scenarios (CLI entry)."""
    verdicts = [
        scale_invariance_verdict(seed=seed, runner=runner),
        rate_monotonicity_verdict(seed=seed, runner=runner),
    ]
    verdicts.extend(dominance_verdicts(seed=seed, runner=runner))
    verdicts.append(baseline_property_verdict(seed=seed, runner=runner))
    return verdicts
