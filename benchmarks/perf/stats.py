"""Rep arithmetic and the simulated-statistics digest."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Any, Dict, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(p25, median, p75) by linear interpolation between order statistics.

    The inclusive method never extrapolates below the fastest rep, which
    the default exclusive method does for two or three values.
    """
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def reduce_reps(values: Sequence[float], estimator: str) -> Dict[str, Any]:
    """One metric's reps -> reported value plus the spread beside it."""
    q1, median, q3 = quartiles(values)
    if estimator == "p25":
        value = q1
    elif estimator == "median":
        value = median
    elif estimator == "mean":
        value = statistics.fmean(values)
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return {
        "value": value,
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": list(values),
    }


def canonical(obj: Any) -> Any:
    """Normalise ``obj`` so equal statistics serialise identically.

    Dict keys become strings and sort at dump time; every number goes
    through one 12-significant-digit format, so ``3``/``3.0``,
    ``1e-05``/``0.00001`` and last-ulp noise cannot split a digest while
    any change a reader of the statistics could see still does.
    """
    if isinstance(obj, dict):
        return {str(key): canonical(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(value) for value in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (int, float)):
        if isinstance(obj, float) and not math.isfinite(obj):
            return repr(obj)
        return format(float(obj), ".12g")
    raise TypeError(f"cannot canonicalise {type(obj).__name__}")


def digest(obj: Any) -> str:
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def all_finite(obj: Any) -> bool:
    """True when no number anywhere inside ``obj`` is NaN or infinite."""
    if isinstance(obj, dict):
        return all(all_finite(value) for value in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(all_finite(value) for value in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True
