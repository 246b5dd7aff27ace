"""One verdict type for every judged statement.

A :class:`Claim` is a row of data: its text, a formatter for the
measured cell, and the named quantities it reads off one run, each with
the side of a threshold it must fall on.  ``judge`` takes one run per
seed and returns a :class:`Verdict`.  At one run a claim is judged on
its point values; at two or more the measured cell adds ``n=N`` and each
quantity's mean ± 95% Student-t half-width, and the claim holds only if
every interval lies on its passing side.

The report's claims (seeds 1..N), the model matrix's cells and the
oracles (one seed each, where the interval is the point) are all
claims, and all print through :meth:`Verdict.row`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Sequence, Tuple

from repro.analysis.stats import mean_interval

__all__ = ["Claim", "NoSamples", "Quantity", "Reading", "Verdict", "table"]

#: The passing side of a threshold.
_SIDES = {">": operator.gt, ">=": operator.ge,
          "<": operator.lt, "<=": operator.le}


class NoSamples(Exception):
    """A quantity has nothing to read in some seed's run: its claim is ✗
    with this message instead of a verdict on a NaN."""


@dataclass(frozen=True)
class Quantity:
    """A number read off one run, and the side of ``threshold`` it must
    fall on for its claim to hold."""

    name: str
    read: Callable[[Any], float]
    side: str
    threshold: float

    def holds(self, lo: float, hi: float) -> bool:
        """Does all of ``[lo, hi]`` lie on the passing side?"""
        edge = lo if self.side.startswith(">") else hi
        return _SIDES[self.side](edge, self.threshold)


@dataclass(frozen=True)
class Reading:
    """One quantity's mean and 95% half-width over the judged runs."""

    name: str
    mean: float
    half_width: float


@dataclass(frozen=True)
class Verdict:
    """A judged claim: its text, whether it holds, the measured cell, and
    the reading of each differently named quantity, in claim order."""

    text: str
    passed: bool
    detail: str
    readings: Tuple[Reading, ...] = ()

    def value(self, name: str) -> float:
        """The mean of the quantity called ``name``."""
        return next(r.mean for r in self.readings if r.name == name)

    def row(self) -> str:
        return f"| {'✓' if self.passed else '✗'} | {self.text} | {self.detail} |"


class Claim:
    """One claim: ✓ when every quantity holds.

    ``detail`` formats the measured cell from the first run; ``applies``
    (on the first run) leaves the claim out altogether.  A run that is
    ``None`` produced no value, and the claim is ✗ ``run failed``.
    """

    def __init__(self, text: str, detail: Callable[[Any], str],
                 *quantities: Quantity,
                 applies: Callable[[Any], bool] = lambda run: True) -> None:
        self.text, self.detail = text, detail
        self.quantities, self.applies = quantities, applies

    def judge(self, runs: Sequence[Any]) -> Verdict:
        """The verdict over one run per seed."""
        if any(run is None for run in runs):
            return Verdict(self.text, False, "run failed")
        try:
            columns = [[q.read(run) for run in runs] for q in self.quantities]
        except NoSamples as missing:
            return Verdict(self.text, False, str(missing))
        intervals = [_t_interval(column) for column in columns]
        passed = all(q.holds(mean - half, mean + half)
                     for q, (mean, half) in zip(self.quantities, intervals))
        readings: Dict[str, Reading] = {}
        for q, (mean, half) in zip(self.quantities, intervals):
            readings.setdefault(q.name, Reading(q.name, mean, half))
        detail = self.detail(runs[0])
        if len(runs) > 1:
            detail += f"; n={len(runs)}: " + ", ".join(
                f"{r.name} {r.mean:.3g} ± {r.half_width:.3g}"
                for r in readings.values())
        return Verdict(self.text, passed, detail, tuple(readings.values()))


def _t_interval(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and 95% Student-t half-width (0 for a single value)."""
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, mean_interval(n, mean, variance).half_width


def table(column: str, verdicts: Iterable[Verdict]) -> str:
    """A markdown table of verdict rows under a ``column`` heading."""
    return "\n".join([f"|  | {column} | measured |", "|---|---|---|"]
                     + [v.row() for v in verdicts])
