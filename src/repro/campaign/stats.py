"""Interval estimation and sequential stopping for campaign cells.

The paper reports every evaluation metric as a mean over 30 repetitions
with error bars (§5); a campaign that replicates blindly either wastes
compute past the point of statistical usefulness or stops short of it.
This module provides the estimators the campaign stack builds on:

* :func:`mean_interval` — Student-t confidence intervals on replication
  means, fed by the *exact* mergeable moments the
  :class:`~repro.telemetry.streaming.QuantileSketch` now carries
  (``count``/``mean``/``variance`` survive shard merges bit-exactly, so
  an interval computed from merged shards equals one computed from the
  raw replication values).
* :func:`quantile_rank_interval` — distribution-free order-statistic
  intervals on sketch quantiles (P50/P95/P99): the interval
  ``[X_(lo), X_(hi)]`` covers the true ``q``-quantile with probability
  ``binomial_cdf(hi-1, n, q) - binomial_cdf(lo-1, n, q)``, no
  distributional assumption needed.  Ranks map to values through
  :meth:`QuantileSketch.value_at_rank`, which is exact while the
  replication count stays within the centroid budget.
* :func:`jain_interval` — Jain-index intervals via per-replication
  share vectors: the index is computed per replication first (the
  paper's estimator), then t-bounded across replications.
* :func:`evaluate_group` — the sequential stopping rule: a grid point
  may stop replicating once the *relative CI half-width* of every
  targeted metric is at or below the spec's ``precision`` target.

Everything here is a pure function of committed shard state, which is
what lets the engine recompute stop decisions deterministically on
resume (the journal records them for audit, not for replay).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.analysis.fairness import jain_index
from repro.telemetry.streaming import QuantileSketch

__all__ = [
    "betainc",
    "student_t_cdf",
    "student_t_ppf",
    "binomial_cdf",
    "CI_QUANTILES",
    "Interval",
    "QuantileInterval",
    "StopDecision",
    "mean_interval",
    "sketch_mean_interval",
    "quantile_rank_interval",
    "jain_interval",
    "metric_matches",
    "evaluate_group",
    "group_ci_dict",
]

#: Quantiles that get rank-based intervals in merged ``ci`` sections.
CI_QUANTILES = (0.50, 0.95, 0.99)


# ----------------------------------------------------------------------
# Distribution primitives (pure Python — the campaign stack must run
# without scipy).  These back the interval estimators below:
# Student-t critical values for mean CIs and the binomial CDF for
# order-statistic quantile intervals.
# ----------------------------------------------------------------------
def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (NR style).

    Evaluates the Lentz continued fraction that multiplies the prefactor
    in :func:`betainc`; converges in a few dozen iterations for every
    ``x`` on the convergent side of ``(a + 1) / (a + b + 2)``.
    """
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            break
    return h


def betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function ``I_x(a, b)``."""
    if a <= 0 or b <= 0:
        raise ValueError("betainc requires a > 0 and b > 0")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    """CDF of Student's t distribution with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError("df must be positive")
    if t == 0.0:
        return 0.5
    # P(|T| > |t|) = I_{df/(df+t^2)}(df/2, 1/2).
    tail = 0.5 * betainc(0.5 * df, 0.5, df / (df + t * t))
    return 1.0 - tail if t > 0 else tail


def student_t_ppf(p: float, df: float) -> float:
    """Inverse CDF of Student's t (bisection on :func:`student_t_cdf`).

    Intended for critical values (``p`` well inside (0, 1)); results are
    memoised because campaign reduction asks for the same ``(p, df)``
    pair once per metric per group.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be within (0, 1)")
    if df <= 0:
        raise ValueError("df must be positive")
    if p == 0.5:
        return 0.0
    key = (p, df)
    cached = _T_PPF_CACHE.get(key)
    if cached is not None:
        return cached
    if p < 0.5:
        value = -student_t_ppf(1.0 - p, df)
        _T_PPF_CACHE[key] = value
        return value
    # Bracket: t grows slowly with p; 1e6 covers df=1 out past p=1-1e-6.
    lo, hi = 0.0, 64.0
    while student_t_cdf(hi, df) < p and hi < 1e9:
        hi *= 32.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    value = 0.5 * (lo + hi)
    _T_PPF_CACHE[key] = value
    return value


_T_PPF_CACHE: Dict[tuple, float] = {}


@lru_cache(maxsize=65536)
def binomial_cdf(k: int, n: int, p: float) -> float:
    """``P(X <= k)`` for ``X ~ Binomial(n, p)`` — exact summation.

    Used for order-statistic coverage: the probability that the true
    ``q``-quantile lies below the ``r``-th order statistic of ``n``
    samples is ``binomial_cdf(r - 1, n, q)``.  Campaign replication
    counts are small (tens), so the direct sum in log space is both
    exact enough and fast enough.  Memoised: the rank-interval search
    re-asks the same ``(k, n, q)`` points for every metric of every
    grid point, and a campaign uses only a handful of distinct ones.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be within [0, 1]")
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    total = 0.0
    log_p = math.log(p)
    log_q = math.log1p(-p)
    for i in range(k + 1):
        log_term = (
            math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * log_p + (n - i) * log_q
        )
        total += math.exp(log_term)
    return min(total, 1.0)


@dataclass(frozen=True)
class Interval:
    """A two-sided confidence interval around a point estimate."""

    lo: float
    hi: float
    confidence: float

    @property
    def half_width(self) -> float:
        return (self.hi - self.lo) / 2.0

    def rel_half_width(self, center: float) -> float:
        """Half-width relative to ``|center|`` (inf when center ~ 0)."""
        hw = self.half_width
        if hw == 0.0:
            return 0.0
        denom = abs(center)
        if denom < 1e-12:
            return math.inf
        return hw / denom


@dataclass(frozen=True)
class QuantileInterval:
    """Order-statistic interval for one quantile.

    ``coverage`` is the *achieved* coverage probability — with few
    replications even the full-range interval ``[X_(1), X_(n)]`` may sit
    below the requested confidence, and callers (the stopping rule, a
    reader of ``merged.json``) need to know when the guarantee is weaker
    than nominal.
    """

    q: float
    lo_rank: int
    hi_rank: int
    lo: float
    hi: float
    coverage: float


def mean_interval(count: int, mean: float, variance: float,
                  confidence: float = 0.95) -> Optional[Interval]:
    """Student-t interval for a replication mean.

    Returns ``None`` below two replications (no variance estimate).  A
    zero sample variance yields a zero-width interval: replications that
    agree exactly — deterministic cells — are infinitely precise, which
    is precisely what lets the stopping rule retire them immediately.
    """
    if count < 2:
        return None
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be within (0, 1)")
    if variance <= 0.0:
        return Interval(mean, mean, confidence)
    t_crit = student_t_ppf(0.5 + confidence / 2.0, count - 1)
    hw = t_crit * math.sqrt(variance / count)
    return Interval(mean - hw, mean + hw, confidence)


def sketch_mean_interval(sketch: QuantileSketch,
                         confidence: float = 0.95) -> Optional[Interval]:
    """t-interval straight off a sketch's mergeable moments."""
    return mean_interval(sketch.count, sketch.mean, sketch.variance,
                         confidence)


def _rank_coverage(lo_rank: int, hi_rank: int, n: int, q: float) -> float:
    """P(X_(lo) <= x_q <= X_(hi)) for the q-quantile of n samples."""
    return binomial_cdf(hi_rank - 1, n, q) - binomial_cdf(lo_rank - 1, n, q)


def quantile_rank_interval(sketch: QuantileSketch, q: float,
                           confidence: float = 0.95
                           ) -> Optional[QuantileInterval]:
    """Distribution-free order-statistic interval for the q-quantile.

    Starting from the central rank, the interval expands one order
    statistic at a time toward whichever side gains more coverage,
    until the binomial coverage reaches ``confidence`` or the interval
    spans the whole sample.  Deterministic by construction (ties expand
    the lower side first), so resumed campaigns recompute the same
    intervals.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be within (0, 1)")
    n = sketch.count
    if n < 2:
        return None
    center = min(max(int(round(q * n)), 1), n)
    lo, hi = center, center
    coverage = _rank_coverage(lo, hi, n, q)
    while coverage < confidence and (lo > 1 or hi < n):
        gain_lo = (
            _rank_coverage(lo - 1, hi, n, q) - coverage if lo > 1 else -1.0
        )
        gain_hi = (
            _rank_coverage(lo, hi + 1, n, q) - coverage if hi < n else -1.0
        )
        if gain_lo >= gain_hi:
            lo -= 1
        else:
            hi += 1
        coverage = _rank_coverage(lo, hi, n, q)
    return QuantileInterval(
        q=q, lo_rank=lo, hi_rank=hi,
        lo=sketch.value_at_rank(lo), hi=sketch.value_at_rank(hi),
        coverage=coverage,
    )


def jain_interval(share_rows: Sequence[Sequence[float]],
                  confidence: float = 0.95) -> Optional[Interval]:
    """Jain-index interval via per-replication share vectors.

    Computes the fairness index *per replication* first (one index per
    share vector, the paper's per-test estimator), then t-bounds the
    replication mean — never pooling shares across replications, which
    would understate the variance.
    """
    if len(share_rows) < 2:
        return None
    jains = [jain_index(row) for row in share_rows]
    n = len(jains)
    mean = sum(jains) / n
    var = sum((j - mean) ** 2 for j in jains) / (n - 1)
    return mean_interval(n, mean, var, confidence)


# ----------------------------------------------------------------------
# Sequential stopping
# ----------------------------------------------------------------------
def metric_matches(path: str, targets: Sequence[str]) -> bool:
    """Does a dotted metric path match any precision target?

    Empty targets match everything.  A target matches its exact path or
    any child (``throughput_mbps`` matches ``throughput_mbps.3``), so
    specs can name metric families without enumerating stations.
    """
    if not targets:
        return True
    for target in targets:
        if path == target or path.startswith(target + ".") \
                or path.startswith(target + "["):
            return True
    return False


@dataclass(frozen=True)
class StopDecision:
    """Outcome of evaluating one grid point against a precision target."""

    met: bool
    reps: int
    #: metric path -> relative CI half-width (inf when unbounded).
    rel_half_widths: Dict[str, float]
    worst_metric: Optional[str]
    worst_rel_half_width: float


def evaluate_group(metrics: Dict[str, QuantileSketch], precision: float,
                   confidence: float = 0.95,
                   targets: Sequence[str] = ()) -> StopDecision:
    """Evaluate a grid point's metric sketches against ``precision``.

    The group meets its target when every matched metric's relative t
    half-width is at or below ``precision``.  A pure function of the
    committed sketches — the engine calls it at replication-round
    boundaries live and recomputes it identically on resume.
    """
    rel: Dict[str, float] = {}
    reps = 0
    for path in sorted(metrics):
        if not metric_matches(path, targets):
            continue
        sketch = metrics[path]
        reps = max(reps, sketch.count)
        interval = sketch_mean_interval(sketch, confidence)
        if interval is None:
            rel[path] = math.inf
        else:
            rel[path] = interval.rel_half_width(sketch.mean)
    if not rel:
        # Nothing to bound (no metrics matched): never stop on silence.
        return StopDecision(False, reps, {}, None, math.inf)
    worst = max(rel, key=lambda p: (rel[p], p))
    met = rel[worst] <= precision
    return StopDecision(met, reps, rel, worst, rel[worst])


# ----------------------------------------------------------------------
# Merged-document CI section
# ----------------------------------------------------------------------
def group_ci_dict(metrics: Dict[str, QuantileSketch],
                  confidence: float = 0.95) -> Dict[str, Any]:
    """JSON-ready per-metric CI section for one merged group.

    Per metric: the t-interval on the mean plus rank intervals for
    :data:`CI_QUANTILES`.  Metrics with a single replication get
    ``{"count": 1}`` — unbounded, rather than an invented zero-width
    interval.
    """
    out: Dict[str, Any] = {}
    for path in sorted(metrics):
        sketch = metrics[path]
        interval = sketch_mean_interval(sketch, confidence)
        if interval is None:
            out[path] = {"count": sketch.count}
            continue
        entry: Dict[str, Any] = {
            "count": sketch.count,
            "mean": sketch.mean,
            "lo": interval.lo,
            "hi": interval.hi,
            "half_width": interval.half_width,
            "confidence": confidence,
        }
        for q in CI_QUANTILES:
            qi = quantile_rank_interval(sketch, q, confidence)
            if qi is not None:
                entry[f"p{int(q * 100):02d}"] = {
                    "lo": qi.lo, "hi": qi.hi,
                    "coverage": qi.coverage,
                }
        out[path] = entry
    return out
