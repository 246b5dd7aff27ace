"""Per-station channel quality model.

The paper's testbed pins station rates (the slow station is *configured*
to MCS0), so the default simulator uses fixed rates and a lossless
channel.  This module provides the optional richer model used by the
rate-control extension: each station has a highest MCS index it can
sustain reliably; transmissions above it fail with sharply increasing
probability, which is the signal a Minstrel-style controller learns from.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.phy.rates import HT20_MCS_TABLE, PhyRate

__all__ = ["StationChannel"]


@dataclass(frozen=True)
class StationChannel:
    """Channel between the AP and one station.

    Attributes
    ----------
    max_reliable_mcs:
        Highest single-stream-equivalent MCS index with ``base_error``
        failure probability; each step above it multiplies the failure
        odds.
    base_error:
        Residual per-aggregate error probability at or below the
        reliable rate.
    step_error:
        Additional failure probability per MCS step above the reliable
        rate (clamped to 0.95).
    """

    max_reliable_mcs: int = 15
    base_error: float = 0.0
    step_error: float = 0.35

    def __post_init__(self) -> None:
        if not 0 <= self.max_reliable_mcs <= 15:
            raise ValueError("max_reliable_mcs must be an MCS index (0-15)")
        if not 0.0 <= self.base_error < 1.0:
            raise ValueError("base_error must be in [0, 1)")

    def error_prob(self, rate: PhyRate) -> float:
        """Per-aggregate failure probability when transmitting at ``rate``."""
        index = self._mcs_index(rate)
        if index is None or index <= self.max_reliable_mcs:
            return self.base_error
        steps = index - self.max_reliable_mcs
        return min(0.95, self.base_error + steps * self.step_error)

    @staticmethod
    def _mcs_index(rate: PhyRate) -> int | None:
        for index, candidate in HT20_MCS_TABLE.items():
            if candidate is rate or candidate.name == rate.name:
                return index
        return None  # legacy rates: treated as always reliable
