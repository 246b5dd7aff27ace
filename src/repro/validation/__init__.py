"""Validation subsystem: differential, metamorphic, and pinned-scenario testing.

Three legs, one goal — evidence that the simulator agrees with the
paper's §2.2.1 analytical model and with itself:

* :mod:`repro.validation.matrix` — a scenario grid cross-validated
  against :func:`repro.model.analytical.predict`, producing a
  machine-readable conformance report;
* :mod:`repro.validation.oracles` — scheme-independent metamorphic and
  dominance properties (conservation, scale invariance, rate
  monotonicity, Jain/latency dominance) plus a fuzzing entry point;
* :mod:`repro.validation.catalogue` — the one list of pinned scenarios,
  each with one JSON pin under ``tests/golden/`` (headline metrics plus
  exact telemetry digests), gated on exact equality.

All three are driven by the ``validate`` CLI subcommand family.
"""

from repro.validation.matrix import (
    CellMetrics,
    CellOutcome,
    CellSpec,
    ConformanceReport,
    Tolerance,
    WAIVED_CELLS,
    default_grid,
    evaluate_cell,
    run_cell,
    run_matrix,
    smoke_grid,
)
from repro.validation.oracles import (
    OracleVerdict,
    check_conservation,
    check_jain_dominance,
    check_latency_dominance,
    check_rate_monotonicity,
    check_scale_invariance,
    check_share_normalisation,
    dominance_verdicts,
    fuzz_verdicts,
    rate_monotonicity_verdict,
    scale_invariance_verdict,
    standard_verdicts,
)

__all__ = [
    "CellMetrics",
    "CellOutcome",
    "CellSpec",
    "ConformanceReport",
    "OracleVerdict",
    "Tolerance",
    "WAIVED_CELLS",
    "check_conservation",
    "check_jain_dominance",
    "check_latency_dominance",
    "check_rate_monotonicity",
    "check_scale_invariance",
    "check_share_normalisation",
    "default_grid",
    "dominance_verdicts",
    "evaluate_cell",
    "fuzz_verdicts",
    "rate_monotonicity_verdict",
    "run_cell",
    "run_matrix",
    "scale_invariance_verdict",
    "smoke_grid",
    "standard_verdicts",
]
