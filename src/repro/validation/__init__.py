"""Validation subsystem: differential, metamorphic, and pinned-scenario testing.

Three legs, one goal — evidence that the simulator agrees with the
paper's §2.2.1 analytical model and with itself:

* :mod:`repro.validation.matrix` — a scenario grid cross-validated
  against :func:`repro.model.analytical.predict`, one verdict per cell;
* :mod:`repro.validation.oracles` — scheme-independent metamorphic and
  dominance properties (conservation, scale invariance, rate
  monotonicity, Jain/latency dominance) plus a fuzzing entry point;
* :mod:`repro.validation.catalogue` — the one list of pinned scenarios,
  each with one JSON pin under ``tests/golden/`` (headline metrics plus
  exact telemetry digests), gated on exact equality.

The matrix's cells, the oracles and the report's claims are all
:class:`repro.validation.verdict.Claim` rows.  All three legs are driven
by the ``validate`` CLI subcommand family.
"""
