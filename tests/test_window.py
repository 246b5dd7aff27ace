"""The measured window: nothing an experiment reports was sampled in its
warm-up.

Every registry row runs once, serially and uncached, over a short window
whose warm-up is longer than the fault sampler's period, so a collector
that kept a warm-up sample would show it.  Every ``*_series`` field of
the returned values is a sequence of ``(time_s, value)`` entries; each
stamp must fall after the warm-up.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Iterator, List, Tuple

import pytest

from repro.experiments.fault_tolerance import SAMPLE_WINDOW_S
from repro.experiments.registry import EXPERIMENTS

DURATION_S, WARMUP_S = 0.6, 0.6
assert WARMUP_S > SAMPLE_WINDOW_S  # the warm-up holds a sampling instant


def _series(value: Any, path: str = "") -> Iterator[Tuple[str, Any]]:
    """Every ``*_series`` field reachable from ``value``, with its path."""
    if dataclasses.is_dataclass(value):
        items = [(f.name, getattr(value, f.name))
                 for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, (list, tuple)):
        items = list(enumerate(value))
    else:
        return
    for key, item in items:
        if isinstance(key, str) and key.endswith("_series"):
            yield f"{path}.{key}", item
        else:
            yield from _series(item, f"{path}[{key!r}]")


@pytest.fixture(scope="module")
def series_by_row() -> Dict[str, List[Tuple[str, Any]]]:
    return {
        row.id: list(_series(row.run(duration_s=DURATION_S,
                                     warmup_s=WARMUP_S)))
        for row in EXPERIMENTS
    }


@pytest.mark.parametrize("row_id", [row.id for row in EXPERIMENTS])
def test_no_series_holds_a_warmup_sample(series_by_row, row_id):
    early = [(path, t) for path, series in series_by_row[row_id]
             for t, _ in series if not t > WARMUP_S]
    assert not early, f"{row_id}: warm-up samples {early}"


def test_some_row_reports_a_series(series_by_row):
    measured = {row_id: [path for path, series in found if series]
                for row_id, found in series_by_row.items()}
    assert any(measured.values()), measured
