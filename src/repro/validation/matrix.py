"""Model cross-validation matrix (leg 1 of the validation subsystem).

The §2.2.1 analytical model predicts, for any set of saturated stations
under airtime fairness, equal airtime shares (``1/|I|``) and a per-station
throughput of ``share × R(n_i, l_i, r_i)`` — where ``n_i`` is the *measured*
mean aggregation level, exactly as the paper feeds its measurements back
into Table 1.  The simulator must agree with that prediction everywhere,
not just at the Table-1 point, so this module sweeps a grid of scenarios
(station counts × rate mixes × aggregation limits × payload sizes), runs
each cell under the airtime-fair scheme, and scores it against the model
within explicit tolerance bands.

Each cell is one :class:`~repro.validation.verdict.Claim` judged on its
one run; the gate is the share of non-waived cells that pass.  The
verdicts, written as JSON by ``validate matrix --report``, are the CI
artifact that turns "the simulator matches the model" from a spot check
into a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.testbed import Testbed, TestbedOptions
from repro.experiments.workloads import udp_rate_for
from repro.faults import audit_conservation
from repro.mac.ap import APConfig, Scheme
from repro.mac.aggregation import AggregationLimits
from repro.model.analytical import StationModel, predict
from repro.phy.rates import mcs
from repro.runner import RunSpec, Runner, execute
from repro.traffic.udp import UdpDownloadFlow
from repro.validation.verdict import Claim, NoSamples, Quantity, Verdict

__all__ = [
    "CellMetrics",
    "CellSpec",
    "GATE",
    "RATE_BAND",
    "RATE_MIXES",
    "SHARE_BAND",
    "WAIVED_CELLS",
    "cell_claim",
    "cell_runspec",
    "default_grid",
    "judge_cell",
    "pass_fraction",
    "run_cell",
    "run_matrix",
    "smoke_grid",
]

#: Named rate mixes: mix name -> per-station MCS indices for ``n`` stations.
#: ``fast_slow`` is the paper's anomaly shape (one slow station dragging the
#: MAC); ``ladder`` spreads stations across the HT20 table like the
#: 30-station testbed's realistic 2.4 GHz rate selection.
RATE_MIXES: Dict[str, callable] = {
    "all_fast": lambda n: tuple([15] * n),
    "fast_slow": lambda n: tuple([15] * (n - 1) + [0]),
    "ladder": lambda n: tuple([2, 4, 7, 9, 12, 15][i % 6] for i in range(n)),
}

#: Bands within which a cell conforms to the analytical model.
#: ``SHARE_BAND`` bounds the absolute deviation of each station's airtime
#: share from the predicted ``1/N``: airtime is what the scheduler
#: controls directly, so the band is tight.  ``RATE_BAND`` bounds the
#: relative error of measured throughput against ``share × R(n, l, r)``;
#: it is looser because throughput inherits both the share error and the
#: discreteness of aggregate sizes (the model uses the *mean* aggregation
#: level, the simulator transmits integer aggregates).
SHARE_BAND = 0.05
RATE_BAND = 0.10

#: The share of non-waived cells that must conform.
GATE = 0.95

#: Cells expected to sit outside the tolerance band, with the reason.
#: Waived cells are still run and reported (so a fix is noticed), but they
#: do not count against the conformance gate.  Two structural groups,
#: measured stable at 6× the default window (i.e. model-approximation
#: limits, not noise):
#:
#: * Two-station fast/slow mixes: the slow station's one TXOP-capped
#:   transmission is a large fraction of each DRR round, so the deficit
#:   scheduler's per-transmission granularity over-serves it (~0.04 share,
#:   ~13% rate at any window length).
#: * Overhead-dominated aggregates (max 8 subframes × 300 B payloads with
#:   a slow station in the mix): per-aggregate overhead dominates airtime
#:   and ``R(n, l, r)`` is convex in ``n``, so feeding the *mean*
#:   aggregation level into the model (the paper's Table-1 methodology)
#:   overestimates throughput — the Jensen gap reaches ~30%.
_REASON_N2 = ("two-station fast/slow mix: deficit-scheduler granularity "
              "over-serves the slow station's TXOP-capped transmissions")
_REASON_JENSEN = ("overhead-dominated aggregates: mean-aggregation model "
                  "overestimates E[R(n)] (Jensen gap)")
WAIVED_CELLS: Dict[str, str] = {
    "n2-fast_slow-agg64-p1500": _REASON_N2,
    "n2-fast_slow-agg64-p300": _REASON_N2,
    "n2-fast_slow-agg8-p1500": _REASON_N2,
    "n2-fast_slow-agg8-p300": _REASON_N2,
    "n3-fast_slow-agg8-p300": _REASON_JENSEN,
    "n5-fast_slow-agg8-p300": _REASON_JENSEN,
    "n8-fast_slow-agg8-p300": _REASON_JENSEN,
    "n3-ladder-agg8-p300": _REASON_JENSEN,
    "n5-ladder-agg8-p300": _REASON_JENSEN,
    "n8-ladder-agg8-p300": _REASON_JENSEN,
}


@dataclass(frozen=True)
class CellSpec:
    """One scenario cell of the cross-validation grid."""

    n_stations: int
    mix: str
    max_subframes: int
    payload_bytes: int
    duration_s: float = 1.5
    warmup_s: float = 0.5
    seed: int = 1

    @property
    def name(self) -> str:
        return (f"n{self.n_stations}-{self.mix}"
                f"-agg{self.max_subframes}-p{self.payload_bytes}")

    def mcs_indices(self) -> Tuple[int, ...]:
        return RATE_MIXES[self.mix](self.n_stations)


@dataclass(frozen=True)
class CellMetrics:
    """Measured outputs of one cell run (picklable; the RunSpec value)."""

    mcs_indices: Tuple[int, ...]
    scheme_name: str
    throughput_mbps: Dict[int, float]
    airtime_shares: Dict[int, float]
    mean_aggregation: Dict[int, float]
    jain_airtime: float
    window_us: float
    conservation_balance: int
    stall_violations: int = 0


def default_grid(
    counts: Sequence[int] = (2, 3, 5, 8),
    mixes: Sequence[str] = ("all_fast", "fast_slow", "ladder"),
    subframes: Sequence[int] = (64, 8),
    payloads: Sequence[int] = (1500, 300),
    duration_s: float = 1.5,
    warmup_s: float = 0.5,
    seed: int = 1,
) -> List[CellSpec]:
    """The full cross-validation grid (48 cells at the defaults)."""
    return [
        CellSpec(n, mix, sub, payload, duration_s, warmup_s, seed)
        for n in counts
        for mix in mixes
        for sub in subframes
        for payload in payloads
    ]


def smoke_grid(seed: int = 1) -> List[CellSpec]:
    """A 6-cell slice covering every grid axis (CI smoke / quick checks)."""
    return [
        CellSpec(3, "fast_slow", 64, 1500, seed=seed),
        CellSpec(3, "fast_slow", 8, 1500, seed=seed),
        CellSpec(5, "ladder", 64, 1500, seed=seed),
        CellSpec(5, "ladder", 64, 300, seed=seed),
        CellSpec(2, "all_fast", 64, 1500, seed=seed),
        CellSpec(8, "ladder", 8, 300, seed=seed),
    ]


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------
def run_cell(
    mcs_indices: Tuple[int, ...],
    payload_bytes: int = 1500,
    max_subframes: int = 64,
    duration_s: float = 1.5,
    warmup_s: float = 0.5,
    seed: int = 1,
    scheme: Scheme = Scheme.AIRTIME,
    strict: bool = False,
) -> CellMetrics:
    """Run one scenario cell: saturating UDP download to every station.

    This is the generic scenario runner the whole validation layer shares:
    the matrix sweeps it across the grid, the metamorphic oracles compare
    pairs of runs of it, and the fuzzer drives it with random arguments
    (``strict=True`` arms the PR-3 watchdogs so any conservation or stall
    violation raises instead of skewing the metrics).
    """
    rates = [mcs(i) for i in mcs_indices]
    config = APConfig(
        aggregation=AggregationLimits(max_subframes=max_subframes),
    )
    testbed = Testbed(
        rates,
        TestbedOptions(scheme=scheme, seed=seed, ap_config=config,
                       strict=strict),
    )
    for idx, station in sorted(testbed.stations.items()):
        UdpDownloadFlow(
            testbed.sim, testbed.server, station,
            rate_bps=udp_rate_for(station.rate),
            packet_size=payload_bytes,
        ).start(delay_us=float(idx))  # tiny stagger avoids phase lock
    window_us = testbed.run(duration_s, warmup_s)
    conservation = testbed.conservation or audit_conservation(testbed)
    stations = sorted(testbed.stations)
    return CellMetrics(
        mcs_indices=tuple(mcs_indices),
        scheme_name=scheme.name,
        throughput_mbps={
            i: testbed.tracker.throughput_bps(i, window_us) / 1e6
            for i in stations
        },
        airtime_shares=testbed.tracker.airtime_shares(stations),
        mean_aggregation={
            i: testbed.tracker.mean_aggregation(i) for i in stations
        },
        jain_airtime=testbed.tracker.jain_airtime(stations),
        window_us=window_us,
        conservation_balance=conservation.balance,
        stall_violations=(
            len(testbed.stall_detector.violations)
            if testbed.stall_detector is not None else 0
        ),
    )


def cell_runspec(label: str, mcs_indices: Sequence[int],
                 **kwargs: Any) -> RunSpec:
    """Wrap one :func:`run_cell` call as a :class:`RunSpec` for the
    parallel runner (the matrix's cells and the oracles' runs alike)."""
    return RunSpec.make("repro.validation.matrix:run_cell", label=label,
                        mcs_indices=tuple(mcs_indices), **kwargs)


# ----------------------------------------------------------------------
# Scoring against the analytical model
# ----------------------------------------------------------------------
def _model_errors(spec: CellSpec, metrics: CellMetrics) -> Tuple[float, float]:
    """The largest airtime-share error from the model's ``1/N`` and the
    largest relative rate error against ``share × R(n, l, r)``, fed the
    *measured* mean aggregation level per station (the paper's
    methodology for Table 1).  A zero predicted rate is an infinite
    error."""
    stations = sorted(metrics.throughput_mbps)
    models = []
    for idx, mcs_index in zip(stations, metrics.mcs_indices):
        agg = metrics.mean_aggregation.get(idx, 0.0)
        if agg <= 0:
            raise NoSamples(f"station {idx} never transmitted")
        models.append(
            StationModel(agg, spec.payload_bytes, mcs(mcs_index), str(idx))
        )
    share_err = rate_err = 0.0
    for idx, pred in zip(stations, predict(models, airtime_fairness=True)):
        share_err = max(
            share_err,
            abs(metrics.airtime_shares.get(idx, 0.0) - pred.airtime_share),
        )
        rate_err = max(rate_err, (
            abs(metrics.throughput_mbps[idx] - pred.rate_mbps)
            / pred.rate_mbps if pred.rate_mbps > 0 else math.inf))
    return share_err, rate_err


def cell_claim(spec: CellSpec) -> Claim:
    """One cell as a claim on its run: every station's airtime share within
    ``SHARE_BAND`` of ``1/N``, every station's throughput within
    ``RATE_BAND`` of ``share × R(n, l, r)``, downlink packet conservation
    balanced exactly and no stall."""
    def detail(metrics: CellMetrics) -> str:
        share_err, rate_err = _model_errors(spec, metrics)
        return (f"share err {share_err:.3f}, rate err {rate_err:.1%}, "
                f"balance {metrics.conservation_balance}, "
                f"stalls {metrics.stall_violations}")

    return Claim(
        spec.name, detail,
        Quantity("max share error", lambda m: _model_errors(spec, m)[0],
                 "<=", SHARE_BAND),
        Quantity("max rate error", lambda m: _model_errors(spec, m)[1],
                 "<=", RATE_BAND),
        Quantity("|conservation balance|",
                 lambda m: abs(m.conservation_balance), "<=", 0),
        Quantity("stall violations", lambda m: m.stall_violations, "<=", 0),
    )


def judge_cell(spec: CellSpec, metrics: Optional[CellMetrics]) -> Verdict:
    """The cell's verdict on its one run (``None``: the run failed); a
    waived cell's detail ends in its reason."""
    verdict = cell_claim(spec).judge([metrics])
    if spec.name in WAIVED_CELLS:
        return replace(verdict, detail=f"{verdict.detail}; "
                                       f"waived: {WAIVED_CELLS[spec.name]}")
    return verdict


def pass_fraction(verdicts: Sequence[Verdict]) -> float:
    """The share of non-waived cells that pass (1.0 when none is gated);
    the grid conforms when it is at least ``GATE``."""
    gated = [v for v in verdicts if v.text not in WAIVED_CELLS]
    if not gated:
        return 1.0
    return sum(v.passed for v in gated) / len(gated)


def run_matrix(cells: Optional[Sequence[CellSpec]] = None,
               runner: Optional[Runner] = None) -> List[Verdict]:
    """Run a grid of cells (via the parallel runner) and judge each one."""
    specs = list(cells) if cells is not None else default_grid()
    values = execute([
        cell_runspec(f"matrix/{s.name}", s.mcs_indices(),
                     payload_bytes=s.payload_bytes,
                     max_subframes=s.max_subframes, duration_s=s.duration_s,
                     warmup_s=s.warmup_s, seed=s.seed)
        for s in specs], runner)
    return [judge_cell(spec, value) for spec, value in zip(specs, values)]
