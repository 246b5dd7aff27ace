"""Measurement utilities: airtime accounting, aggregation stats, CDFs.

:class:`AirtimeTracker` observes the medium and maintains per-station
airtime totals (downlink + uplink, as the paper's accounting does),
per-station aggregation-size averages, and delivered-payload counters —
everything Figures 5–7, 9 and Table 1 are computed from.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.fairness import jain_index
from repro.mac.medium import TransmissionRecord

__all__ = [
    "AirtimeTracker",
    "percentile",
    "cdf_points",
    "summarize",
]


class AirtimeTracker:
    """Medium observer accumulating per-station airtime and aggregation.

    Attach via ``medium.add_observer(tracker.on_transmission)``.  Call
    :meth:`reset` after the warm-up period so measurements cover only the
    steady-state window, like the paper's test harness does.
    """

    def __init__(self, count_uplink: bool = True) -> None:
        self.count_uplink = count_uplink
        self.airtime_us: Dict[int, float] = defaultdict(float)
        self.downlink_airtime_us: Dict[int, float] = defaultdict(float)
        self.uplink_airtime_us: Dict[int, float] = defaultdict(float)
        self.delivered_bytes: Dict[int, int] = defaultdict(int)
        self._agg_packets: Dict[int, int] = defaultdict(int)
        self._agg_count: Dict[int, int] = defaultdict(int)
        self.records = 0

    def on_transmission(self, record: TransmissionRecord) -> None:
        self.records += 1
        station = record.station
        if record.downlink:
            self.downlink_airtime_us[station] += record.airtime_us
            self.airtime_us[station] += record.airtime_us
            if record.success:
                self.delivered_bytes[station] += record.payload_bytes
            # Aggregation statistics follow the paper: mean A-MPDU size of
            # downlink data transmissions.
            self._agg_packets[station] += record.n_packets
            self._agg_count[station] += 1
        else:
            self.uplink_airtime_us[station] += record.airtime_us
            if self.count_uplink:
                self.airtime_us[station] += record.airtime_us

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero all counters (end of warm-up)."""
        self.airtime_us.clear()
        self.downlink_airtime_us.clear()
        self.uplink_airtime_us.clear()
        self.delivered_bytes.clear()
        self._agg_packets.clear()
        self._agg_count.clear()
        self.records = 0

    # ------------------------------------------------------------------
    def airtime_shares(self, stations: Optional[Sequence[int]] = None) -> Dict[int, float]:
        """Fraction of the summed airtime used by each station."""
        keys = list(stations) if stations is not None else sorted(self.airtime_us)
        total = sum(self.airtime_us.get(k, 0.0) for k in keys)
        if total <= 0:
            return {k: 0.0 for k in keys}
        return {k: self.airtime_us.get(k, 0.0) / total for k in keys}

    def jain_airtime(self, stations: Optional[Sequence[int]] = None) -> float:
        keys = list(stations) if stations is not None else sorted(self.airtime_us)
        return jain_index(self.airtime_us.get(k, 0.0) for k in keys)

    def mean_aggregation(self, station: int) -> float:
        count = self._agg_count.get(station, 0)
        if count == 0:
            return 0.0
        return self._agg_packets[station] / count

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
