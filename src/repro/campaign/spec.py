"""Declarative campaign specifications: grid axes × replications × seeds.

A :class:`CampaignSpec` names a whole sweep — the cross product of a
parameter grid, replicated ``replications`` times with seeds drawn from
a deterministic ladder — without executing anything.  Expansion is pure
and order-stable: cell ``k`` of a spec is the same cell with the same
seed on every machine, every resume, and every partial re-run, which is
what makes checkpoint/resume byte-identical to an uninterrupted sweep.

The spec is JSON round-trippable (the CLI takes a spec file) and has a
stable SHA-256 digest; the digest is stamped into the campaign journal
and re-checked on resume so a campaign directory can never silently
continue under a different spec.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import repro
from repro.runner.spec import RunSpec, canonical, derive_seed, spec_digest

__all__ = ["CampaignSpec", "CellSpec"]


@dataclass(frozen=True)
class CellSpec:
    """One grid point × one replication: the campaign's unit of work."""

    #: Position in the expanded campaign (0-based, expansion order).
    index: int
    #: Axis name -> value for this grid point.
    key: Tuple[Tuple[str, Any], ...]
    #: Replication number within the grid point (0-based).
    rep: int
    #: Seed derived from the campaign base seed + key + rep.
    seed: int
    #: Target function (``module:function``) and its full kwargs.
    fn: str
    kwargs: Tuple[Tuple[str, Any], ...]
    label: str = field(default="", compare=False)

    @property
    def key_dict(self) -> Dict[str, Any]:
        return dict(self.key)

    def to_run_spec(self) -> RunSpec:
        return RunSpec(fn=self.fn, kwargs=self.kwargs, label=self.label)

    def digest(self) -> str:
        """Cache-compatible digest of the underlying run."""
        return spec_digest(self.fn, dict(self.kwargs), repro.__version__)


@dataclass(frozen=True)
class CampaignSpec:
    """A parameter-grid sweep, declaratively.

    ``grid`` maps axis names to value lists; cells are the cross product
    in declaration order (first axis slowest), each replicated
    ``replications`` times.  ``fixed`` kwargs are passed to every cell.
    The target ``fn`` receives ``**fixed``, ``**grid-point``, and
    ``seed=<derived>``.
    """

    name: str
    fn: str
    grid: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    fixed: Tuple[Tuple[str, Any], ...] = ()
    replications: int = 1
    base_seed: int = 1
    #: Completion fraction below which the campaign is a gate breach
    #: (exit 4) rather than a partial success (exit 3).
    min_complete: float = 1.0
    #: Per-failure-class retry budgets (merged over the defaults in
    #: :mod:`repro.campaign.retry`).
    retry_budgets: Tuple[Tuple[str, int], ...] = ()
    #: Exponential-backoff base delay between retries of a cell.
    backoff_base_s: float = 0.05
    #: Hard cap on any single backoff delay.
    backoff_cap_s: float = 5.0
    #: Sequential-stopping target: maximum relative CI half-width at
    #: which a grid point may stop replicating early.  0.0 disables
    #: precision mode and ``replications`` runs unconditionally; when
    #: set, ``replications`` becomes the hard cap.
    precision: float = 0.0
    #: Metric paths (or path prefixes) the precision target applies to.
    #: Empty means every numeric metric — usually too strict, since
    #: near-zero metrics never tighten in relative terms.
    precision_metrics: Tuple[str, ...] = ()
    #: Confidence level of every interval (stopping rule and merged
    #: ``ci`` sections).
    confidence: float = 0.95
    #: Replications every grid point must commit before the stopping
    #: rule may retire it (variance estimates below this are noise).
    min_reps: int = 3

    # ------------------------------------------------------------------
    @classmethod
    def make(
        cls,
        name: str,
        fn: str,
        grid: Dict[str, Sequence[Any]],
        fixed: Optional[Dict[str, Any]] = None,
        replications: int = 1,
        base_seed: int = 1,
        min_complete: float = 1.0,
        retry_budgets: Optional[Dict[str, int]] = None,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 5.0,
        precision: float = 0.0,
        precision_metrics: Optional[Sequence[str]] = None,
        confidence: float = 0.95,
        min_reps: int = 3,
    ) -> "CampaignSpec":
        """Build a spec from plain dicts (axis order = dict order)."""
        if replications < 1:
            raise ValueError("replications must be >= 1")
        if not grid:
            raise ValueError("a campaign needs at least one grid axis")
        for axis, values in grid.items():
            if not values:
                raise ValueError(f"grid axis {axis!r} has no values")
        if not 0.0 <= min_complete <= 1.0:
            raise ValueError("min_complete must be within [0, 1]")
        if precision < 0.0:
            raise ValueError("precision must be >= 0 (0 disables)")
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be within (0, 1)")
        if min_reps < 2:
            raise ValueError("min_reps must be >= 2 (variance needs two)")
        return cls(
            name=name,
            fn=fn,
            grid=tuple((k, tuple(v)) for k, v in grid.items()),
            fixed=tuple(sorted((fixed or {}).items())),
            replications=int(replications),
            base_seed=int(base_seed),
            min_complete=float(min_complete),
            retry_budgets=tuple(sorted((retry_budgets or {}).items())),
            backoff_base_s=float(backoff_base_s),
            backoff_cap_s=float(backoff_cap_s),
            precision=float(precision),
            precision_metrics=tuple(precision_metrics or ()),
            confidence=float(confidence),
            min_reps=int(min_reps),
        )

    # ------------------------------------------------------------------
    @property
    def grid_points(self) -> int:
        count = 1
        for _, values in self.grid:
            count *= len(values)
        return count

    @property
    def total_cells(self) -> int:
        return self.grid_points * self.replications

    def digest(self) -> str:
        """Stable identity of the whole sweep (journal/resume guard)."""
        blob = json.dumps(
            ["campaign", canonical(self), repro.__version__],
            sort_keys=True, separators=(",", ":"),
        )
        import hashlib

        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    def iter_cells(self) -> Iterator[CellSpec]:
        """Expand the grid × replication matrix, in stable order."""
        axes = [(name, list(values)) for name, values in self.grid]
        fixed = dict(self.fixed)

        def points(level: int, chosen: List[Tuple[str, Any]]):
            if level == len(axes):
                yield tuple(chosen)
                return
            name, values = axes[level]
            for value in values:
                chosen.append((name, value))
                yield from points(level + 1, chosen)
                chosen.pop()

        index = 0
        for key in points(0, []):
            for rep in range(self.replications):
                seed = derive_seed(self.base_seed, list(key), rep)
                kwargs = dict(fixed)
                kwargs.update(key)
                kwargs["seed"] = seed
                label = "/".join(
                    [self.name]
                    + [f"{k}={v}" for k, v in key]
                    + ([f"rep{rep}"] if self.replications > 1 else [])
                )
                yield CellSpec(
                    index=index,
                    key=key,
                    rep=rep,
                    seed=seed,
                    fn=self.fn,
                    kwargs=tuple(sorted(kwargs.items())),
                    label=label,
                )
                index += 1

    def cells(self) -> List[CellSpec]:
        return list(self.iter_cells())

    # ------------------------------------------------------------------
    # JSON round trip (CLI spec files)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "fn": self.fn,
            "grid": {k: list(v) for k, v in self.grid},
            "fixed": dict(self.fixed),
            "replications": self.replications,
            "base_seed": self.base_seed,
            "min_complete": self.min_complete,
            "retry_budgets": dict(self.retry_budgets),
            "backoff_base_s": self.backoff_base_s,
            "backoff_cap_s": self.backoff_cap_s,
            "precision": self.precision,
            "precision_metrics": list(self.precision_metrics),
            "confidence": self.confidence,
            "min_reps": self.min_reps,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        try:
            return cls.make(
                name=data["name"],
                fn=data["fn"],
                grid=data["grid"],
                fixed=data.get("fixed"),
                replications=data.get("replications", 1),
                base_seed=data.get("base_seed", 1),
                min_complete=data.get("min_complete", 1.0),
                retry_budgets=data.get("retry_budgets"),
                backoff_base_s=data.get("backoff_base_s", 0.05),
                backoff_cap_s=data.get("backoff_cap_s", 5.0),
                precision=data.get("precision", 0.0),
                precision_metrics=data.get("precision_metrics"),
                confidence=data.get("confidence", 0.95),
                min_reps=data.get("min_reps", 3),
            )
        except KeyError as exc:
            raise ValueError(f"campaign spec missing field {exc}") from exc

    @classmethod
    def from_json(cls, path: str) -> "CampaignSpec":
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ValueError(f"{path}: campaign spec must be a JSON object")
        return cls.from_dict(data)
