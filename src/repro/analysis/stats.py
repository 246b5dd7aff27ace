"""Measurement utilities: airtime accounting, aggregation stats, CDFs,
and confidence intervals over replications.

:class:`AirtimeTracker` is the run's one per-station airtime account
(downlink + uplink, as the paper's accounting does, with the ledger's
tx / retry / contention split), aggregation sizes and delivered payload
— everything Figures 5–7, 9 and Table 1 are computed from, and what the
telemetry tables, ``trace summarize`` and the ledger audit read.
:func:`mean_interval` is the Student-t interval the report judges a
claim on when it runs several seeds; its distribution functions are
pure Python, because nothing a user runs may import scipy.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.fairness import jain_index

__all__ = [
    "AirtimeTracker",
    "Interval",
    "betainc",
    "cdf_points",
    "mean_interval",
    "percentile",
    "student_t_cdf",
    "student_t_ppf",
    "summarize",
]


class AirtimeTracker:
    """The run's one airtime account: per-station totals over the
    measurement window, all times in µs.

    :meth:`on_tx` takes the ``tx`` trace record's positional fields, so
    one handler serves both feeds: the testbed calls it from a medium
    observer per :class:`~repro.mac.medium.TransmissionRecord`, and
    ``trace summarize`` / ``trace diff`` call it per ``tx`` record of a
    file.  Every table is a running sum kept in record order (none is
    derived from another), so both feeds reproduce the same floats bit
    for bit.  :meth:`reset` ends the warm-up.

    Downlink airtime splits into ``tx_us`` (successful attempts),
    ``retry_us`` (failed ones) and ``contention_us`` (DIFS + backoff);
    uplink into the ``rx_*`` sums.  Aggregation counts cover downlink
    attempts, delivery covers successful downlink.
    """

    def __init__(self) -> None:
        self.airtime_us: Dict[int, float] = defaultdict(float)
        self.downlink_airtime_us: Dict[int, float] = defaultdict(float)
        self.uplink_airtime_us: Dict[int, float] = defaultdict(float)
        self.tx_us: Dict[int, float] = defaultdict(float)
        self.retry_us: Dict[int, float] = defaultdict(float)
        self.contention_us: Dict[int, float] = defaultdict(float)
        self.rx_us: Dict[int, float] = defaultdict(float)
        self.rx_retry_us: Dict[int, float] = defaultdict(float)
        self.rx_contention_us: Dict[int, float] = defaultdict(float)
        self.transmissions: Dict[int, int] = defaultdict(int)
        self.packets: Dict[int, int] = defaultdict(int)
        self.aggs: Dict[int, int] = defaultdict(int)
        self.agg_packets: Dict[int, int] = defaultdict(int)
        self.delivered_packets: Dict[int, int] = defaultdict(int)
        self.delivered_bytes: Dict[int, int] = defaultdict(int)

    def on_tx(self, t: float, station: int, airtime_us: float, tx_us: float,
              down: bool, n_pkts: int, n_bytes: int, ok: bool) -> None:
        """Book one transmission (``t`` is the ``tx`` record's time)."""
        self.transmissions[station] += 1
        self.packets[station] += n_pkts
        self.airtime_us[station] += airtime_us
        if down:
            self.downlink_airtime_us[station] += airtime_us
            self.contention_us[station] += airtime_us - tx_us
            # The paper's aggregation statistic: mean A-MPDU size of
            # downlink attempts.
            self.aggs[station] += 1
            self.agg_packets[station] += n_pkts
            if ok:
                self.tx_us[station] += tx_us
                self.delivered_packets[station] += n_pkts
                self.delivered_bytes[station] += n_bytes
            else:
                self.retry_us[station] += tx_us
        else:
            self.uplink_airtime_us[station] += airtime_us
            self.rx_contention_us[station] += airtime_us - tx_us
            if ok:
                self.rx_us[station] += tx_us
            else:
                self.rx_retry_us[station] += tx_us

    def reset(self) -> None:
        """Zero every table (end of warm-up)."""
        for table in vars(self).values():
            table.clear()

    def station(self, station: int) -> Dict[str, Any]:
        """Every table's entry for ``station`` (zero where it has none)."""
        return {name: table.get(station, table.default_factory())
                for name, table in vars(self).items()}

    # ------------------------------------------------------------------
    def airtime_shares(self, stations: Optional[Sequence[int]] = None) -> Dict[int, float]:
        """Fraction of the summed airtime used by each of ``stations``
        (default: every station, in order of first transmission)."""
        keys = list(self.airtime_us if stations is None else stations)
        total = sum(self.airtime_us.get(k, 0.0) for k in keys)
        if total <= 0:
            return {k: 0.0 for k in keys}
        return {k: self.airtime_us.get(k, 0.0) / total for k in keys}

    def jain_airtime(self, stations: Optional[Sequence[int]] = None) -> float:
        keys = list(stations) if stations is not None else sorted(self.airtime_us)
        return jain_index(self.airtime_us.get(k, 0.0) for k in keys)

    def mean_aggregation(self, station: int) -> float:
        count = self.aggs.get(station, 0)
        if count == 0:
            return 0.0
        return self.agg_packets[station] / count

    def throughput_bps(self, station: int, window_us: float) -> float:
        if window_us <= 0:
            return 0.0
        return 8 * self.delivered_bytes.get(station, 0) / (window_us / 1e6)


# ----------------------------------------------------------------------
# Distribution helpers
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (``pct`` in [0, 100]).

    NaN samples are rejected: they sort unpredictably, so a single NaN
    would silently corrupt every quantile computed from the series.
    """
    if not samples:
        raise ValueError("no samples")
    if not 0 <= pct <= 100:
        raise ValueError("pct must be within [0, 100]")
    if any(math.isnan(s) for s in samples):
        raise ValueError("percentile is undefined for NaN samples")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = pct / 100 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def cdf_points(samples: Sequence[float]) -> List[tuple[float, float]]:
    """Empirical CDF as (value, cumulative probability) pairs."""
    ordered = sorted(samples)
    n = len(ordered)
    return [(value, (i + 1) / n) for i, value in enumerate(ordered)]


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary used in the experiment reports."""

    count: int
    mean: float
    p10: float
    median: float
    p90: float
    p99: float


def summarize(samples: Sequence[float]) -> Summary:
    if not samples:
        return Summary(0, float("nan"), float("nan"), float("nan"),
                       float("nan"), float("nan"))
    return Summary(
        count=len(samples),
        mean=sum(samples) / len(samples),
        p10=percentile(samples, 10),
        median=percentile(samples, 50),
        p90=percentile(samples, 90),
        p99=percentile(samples, 99),
    )


# ----------------------------------------------------------------------
# Confidence intervals over replications
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


@lru_cache(maxsize=256)
def student_t_ppf(p: float, df: float) -> float:
    """Inverse CDF of Student's t (bisection on :func:`student_t_cdf`).

    Intended for critical values (``p`` well inside (0, 1)); memoised,
    since a report asks for the same ``(p, df)`` once per quantity.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be within (0, 1)")
    if df <= 0:
        raise ValueError("df must be positive")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -student_t_ppf(1.0 - p, df)
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
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class Interval:
    """A two-sided confidence interval around a mean."""

    lo: float
    hi: float
    confidence: float

    @property
    def half_width(self) -> float:
        return (self.hi - self.lo) / 2.0


def mean_interval(count: int, mean: float, variance: float,
                  confidence: float = 0.95) -> Optional[Interval]:
    """Student-t interval for the mean of ``count`` replications.

    Returns ``None`` below two replications (no variance estimate).  A
    zero sample variance yields a zero-width interval: replications that
    agree exactly are infinitely precise.
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
