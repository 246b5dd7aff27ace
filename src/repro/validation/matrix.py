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

The output is a machine-readable :class:`ConformanceReport` with per-cell
pass/fail, the worst-case relative error, and any waived cells — the CI
artifact that turns "the simulator matches the model" from a spot check
into a sweep.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.fairness import jain_index
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.experiments.workloads import udp_rate_for
from repro.faults import audit_conservation
from repro.mac.ap import APConfig, Scheme
from repro.mac.aggregation import AggregationLimits
from repro.model.analytical import StationModel, predict
from repro.phy.rates import mcs
from repro.runner import RunSpec, Runner, execute
from repro.traffic.udp import UdpDownloadFlow

__all__ = [
    "CellMetrics",
    "CellOutcome",
    "CellSpec",
    "ConformanceReport",
    "Tolerance",
    "RATE_MIXES",
    "WAIVED_CELLS",
    "default_grid",
    "smoke_grid",
    "evaluate_cell",
    "run_cell",
    "run_matrix",
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


@dataclass(frozen=True)
class Tolerance:
    """Bands within which a cell conforms to the analytical model.

    ``share_abs`` bounds the absolute deviation of each station's airtime
    share from the predicted ``1/N`` — airtime is what the scheduler
    controls directly, so the band is tight.  ``rate_rel`` bounds the
    relative error of measured throughput against ``share × R(n, l, r)``;
    it is looser because throughput inherits both the share error and the
    discreteness of aggregate sizes (the model uses the *mean* aggregation
    level, the simulator transmits integer aggregates).
    """

    share_abs: float = 0.05
    rate_rel: float = 0.10


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


def cell_spec_to_runspec(spec: CellSpec) -> RunSpec:
    """Wrap a grid cell as a :class:`RunSpec` for the parallel runner."""
    return RunSpec.make(
        "repro.validation.matrix:run_cell",
        label=f"matrix/{spec.name}",
        mcs_indices=spec.mcs_indices(),
        payload_bytes=spec.payload_bytes,
        max_subframes=spec.max_subframes,
        duration_s=spec.duration_s,
        warmup_s=spec.warmup_s,
        seed=spec.seed,
    )


# ----------------------------------------------------------------------
# Scoring against the analytical model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellOutcome:
    """One scored cell of the conformance report."""

    name: str
    passed: bool
    waived: bool
    share_err: float
    rate_err_rel: float
    conservation_ok: bool
    detail: str = ""
    predicted_mbps: Dict[int, float] = field(default_factory=dict)
    measured_mbps: Dict[int, float] = field(default_factory=dict)


def evaluate_cell(
    spec: CellSpec,
    metrics: Optional[CellMetrics],
    tolerance: Tolerance = Tolerance(),
) -> CellOutcome:
    """Score one cell's measurements against the analytical model.

    The model is fed the *measured* mean aggregation level per station
    (the paper's methodology for Table 1); the cell passes when every
    station's airtime share is within ``share_abs`` of ``1/N``, every
    station's throughput is within ``rate_rel`` of ``share × R(n, l, r)``,
    and downlink packet conservation balanced exactly.
    """
    waived = spec.name in WAIVED_CELLS
    if metrics is None:
        return CellOutcome(
            name=spec.name, passed=False, waived=waived,
            share_err=float("inf"), rate_err_rel=float("inf"),
            conservation_ok=False, detail="run failed (no metrics)",
        )
    indices = metrics.mcs_indices
    stations = sorted(metrics.throughput_mbps)
    problems: List[str] = []

    models = []
    for idx, mcs_index in zip(stations, indices):
        agg = metrics.mean_aggregation.get(idx, 0.0)
        if agg <= 0:
            problems.append(f"station {idx} never transmitted")
            agg = 1.0
        models.append(
            StationModel(agg, spec.payload_bytes, mcs(mcs_index), str(idx))
        )
    predictions = predict(models, airtime_fairness=True)

    share_err = 0.0
    rate_err = 0.0
    predicted = {}
    for idx, pred in zip(stations, predictions):
        predicted[idx] = pred.rate_mbps
        share_err = max(
            share_err,
            abs(metrics.airtime_shares.get(idx, 0.0) - pred.airtime_share),
        )
        if pred.rate_mbps > 0:
            rate_err = max(
                rate_err,
                abs(metrics.throughput_mbps[idx] - pred.rate_mbps)
                / pred.rate_mbps,
            )
        else:
            problems.append(f"station {idx}: model predicts zero rate")

    if share_err > tolerance.share_abs:
        problems.append(
            f"airtime share off by {share_err:.3f} "
            f"(> {tolerance.share_abs:.3f})"
        )
    if rate_err > tolerance.rate_rel:
        problems.append(
            f"throughput off by {rate_err:.1%} (> {tolerance.rate_rel:.0%})"
        )
    conservation_ok = metrics.conservation_balance == 0
    if not conservation_ok:
        problems.append(
            f"conservation balance {metrics.conservation_balance} != 0"
        )
    if metrics.stall_violations:
        problems.append(f"{metrics.stall_violations} stall violation(s)")
    if waived and problems:
        problems.append(f"waived: {WAIVED_CELLS[spec.name]}")
    return CellOutcome(
        name=spec.name,
        passed=not problems,
        waived=waived,
        share_err=share_err,
        rate_err_rel=rate_err,
        conservation_ok=conservation_ok,
        detail="; ".join(problems),
        predicted_mbps=predicted,
        measured_mbps=dict(metrics.throughput_mbps),
    )


@dataclass(frozen=True)
class ConformanceReport:
    """Machine-readable result of one matrix sweep."""

    cells: List[CellOutcome]
    tolerance: Tolerance

    @property
    def gated_cells(self) -> List[CellOutcome]:
        """Cells that count toward the conformance gate (non-waived)."""
        return [c for c in self.cells if not c.waived]

    @property
    def pass_fraction(self) -> float:
        gated = self.gated_cells
        if not gated:
            return 1.0
        return sum(1 for c in gated if c.passed) / len(gated)

    @property
    def worst_rate_err(self) -> float:
        finite = [c.rate_err_rel for c in self.cells
                  if c.rate_err_rel != float("inf")]
        return max(finite, default=0.0)

    def conforms(self, threshold: float = 0.95) -> bool:
        return self.pass_fraction >= threshold

    def to_json(self) -> str:
        return json.dumps(
            {
                "tolerance": asdict(self.tolerance),
                "pass_fraction": round(self.pass_fraction, 4),
                "worst_rate_err": round(self.worst_rate_err, 4),
                "waived": {
                    c.name: WAIVED_CELLS.get(c.name, "")
                    for c in self.cells if c.waived
                },
                "cells": [
                    {
                        "name": c.name,
                        "passed": c.passed,
                        "waived": c.waived,
                        "share_err": round(c.share_err, 4),
                        "rate_err_rel": round(c.rate_err_rel, 4),
                        "conservation_ok": c.conservation_ok,
                        "detail": c.detail,
                    }
                    for c in self.cells
                ],
            },
            indent=2,
            sort_keys=True,
        )

    def format_table(self) -> str:
        lines = [
            "Model cross-validation matrix "
            f"(share ±{self.tolerance.share_abs:.2f} abs, "
            f"rate ±{self.tolerance.rate_rel:.0%} rel)"
        ]
        lines.append(f"{'cell':<26} {'share err':>9} {'rate err':>9} "
                     f"{'conserved':>9}  status")
        for cell in self.cells:
            status = "pass" if cell.passed else (
                "WAIVED" if cell.waived else "FAIL"
            )
            detail = f"  {cell.detail}" if cell.detail and not cell.passed else ""
            lines.append(
                f"{cell.name:<26} {cell.share_err:9.3f} "
                f"{cell.rate_err_rel:9.1%} "
                f"{'yes' if cell.conservation_ok else 'NO':>9}  "
                f"{status}{detail}"
            )
        lines.append(
            f"{len(self.cells)} cells, "
            f"{self.pass_fraction:.1%} of gated cells within tolerance, "
            f"worst rate error {self.worst_rate_err:.1%}"
        )
        return "\n".join(lines)


def run_matrix(
    cells: Optional[Sequence[CellSpec]] = None,
    runner: Optional[Runner] = None,
    tolerance: Tolerance = Tolerance(),
) -> ConformanceReport:
    """Run a grid of cells (via the parallel runner) and score each one."""
    specs = list(cells) if cells is not None else default_grid()
    values = execute([cell_spec_to_runspec(s) for s in specs], runner)
    outcomes = [
        evaluate_cell(spec, value, tolerance)
        for spec, value in zip(specs, values)
    ]
    return ConformanceReport(cells=outcomes, tolerance=tolerance)
