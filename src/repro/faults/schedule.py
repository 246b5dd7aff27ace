"""Fault schedules: the declarative description of what goes wrong, when.

A :class:`FaultSchedule` is pure data — frozen dataclasses holding
tuples — so it can ride inside a :class:`~repro.runner.spec.RunSpec`'s
kwargs and participate in the cache digest: an impaired run can never be
satisfied from a clean run's cache entry.  The live machinery that makes
the faults happen (Gilbert–Elliott chains, churn timers, the composed
error-probability function) is built from it by
:class:`repro.faults.injector.FaultInjector`.

Schedules can also be loaded from JSON (the CLI's ``--faults file.json``),
with one top-level key per fault type::

    {
      "burst_loss":   [{"station": 1, "start_s": 2.0, "end_s": 8.0}],
      "interference": [{"start_s": 10.0, "end_s": 12.0, "error_prob": 0.4}],
      "rate_crash":   [{"station": 0, "start_s": 4.0, "end_s": 9.0,
                        "max_reliable_mcs": 1}],
      "churn":        [{"station": 2, "detach_s": 5.0, "reattach_s": 11.0,
                        "mode": "flush"}]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Container, Optional, Tuple, Union

__all__ = [
    "BurstLoss",
    "Interference",
    "RateCrash",
    "Churn",
    "FaultSchedule",
]


def _check_window(start_s: float, end_s: float) -> None:
    if start_s < 0:
        raise ValueError("start_s must be >= 0")
    if end_s <= start_s:
        raise ValueError("end_s must be > start_s")


@dataclass(frozen=True)
class BurstLoss:
    """Bursty loss on one station's channel (Gilbert–Elliott).

    Within ``[start_s, end_s)`` the station's per-aggregate error
    probability follows a two-state chain: ``good_error`` in the good
    state, ``bad_error`` in the bad state, with exponentially
    distributed dwell times (means ``mean_good_s`` / ``mean_bad_s``).
    Outside the window the chain contributes nothing.
    """

    station: int
    start_s: float
    end_s: float
    good_error: float = 0.0
    bad_error: float = 0.8
    mean_good_s: float = 1.0
    mean_bad_s: float = 0.2

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        for name in ("good_error", "bad_error"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1)")
        if self.mean_good_s <= 0 or self.mean_bad_s <= 0:
            raise ValueError("mean dwell times must be positive")


@dataclass(frozen=True)
class Interference:
    """A window of co-channel interference hitting every transmission.

    Adds ``error_prob`` to the failure probability of *all* aggregates
    (uplink and downlink) completed within ``[start_s, end_s)``.
    """

    start_s: float
    end_s: float
    error_prob: float = 0.3

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if not 0.0 <= self.error_prob < 1.0:
            raise ValueError("error_prob must be in [0, 1)")


@dataclass(frozen=True)
class RateCrash:
    """A step change in a station's sustainable rate.

    Within ``[start_s, end_s)`` the station's channel behaves as if its
    highest reliable MCS dropped to ``max_reliable_mcs`` — transmissions
    pinned above it fail with sharply increasing probability (see
    :class:`repro.phy.channel.StationChannel`).  At ``end_s`` the channel
    recovers.
    """

    station: int
    start_s: float
    end_s: float
    max_reliable_mcs: int = 0
    step_error: float = 0.35

    def __post_init__(self) -> None:
        _check_window(self.start_s, self.end_s)
        if not 0 <= self.max_reliable_mcs <= 15:
            raise ValueError("max_reliable_mcs must be an MCS index (0-15)")


@dataclass(frozen=True)
class Churn:
    """A station leaving (and optionally re-joining) the BSS mid-run.

    ``mode="flush"`` drops everything queued toward the station on
    detach (disassociation); ``mode="park"`` keeps the queues resident
    but unscheduled (powersave doze).  ``reattach_s=None`` means the
    station never comes back.
    """

    station: int
    detach_s: float
    reattach_s: Optional[float] = None
    mode: str = "flush"

    def __post_init__(self) -> None:
        if self.detach_s < 0:
            raise ValueError("detach_s must be >= 0")
        if self.reattach_s is not None and self.reattach_s <= self.detach_s:
            raise ValueError("reattach_s must be > detach_s")
        if self.mode not in ("flush", "park"):
            raise ValueError("mode must be 'flush' or 'park'")


@dataclass(frozen=True)
class FaultSchedule:
    """Everything that goes wrong during one run."""

    burst_loss: Tuple[BurstLoss, ...] = ()
    interference: Tuple[Interference, ...] = ()
    rate_crash: Tuple[RateCrash, ...] = ()
    churn: Tuple[Churn, ...] = ()

    @property
    def empty(self) -> bool:
        return not (
            self.burst_loss or self.interference
            or self.rate_crash or self.churn
        )

    def check_stations(self, stations: Container[int]) -> None:
        """Raise unless every per-station fault names one of ``stations``
        (the testbed calls this before anything is built or scheduled)."""
        for kind in ("burst_loss", "rate_crash", "churn"):
            for fault in getattr(self, kind):
                if fault.station not in stations:
                    raise ValueError(
                        f"{kind} references unknown station {fault.station}"
                    )

    # ------------------------------------------------------------------
    # Construction from JSON / dicts (the CLI's --faults flag)
    # ------------------------------------------------------------------
    _FAULT_TYPES = (
        ("burst_loss", BurstLoss),
        ("interference", Interference),
        ("rate_crash", RateCrash),
        ("churn", Churn),
    )

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        known = {key for key, _ in cls._FAULT_TYPES}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown fault types {sorted(unknown)!r}; "
                f"valid: {sorted(known)}"
            )
        kwargs = {}
        for key, fault_cls in cls._FAULT_TYPES:
            entries = data.get(key, ())
            valid = {f.name for f in fields(fault_cls)}
            parsed = []
            for entry in entries:
                extra = set(entry) - valid
                if extra:
                    raise ValueError(
                        f"unknown {key} fields {sorted(extra)!r}"
                    )
                parsed.append(fault_cls(**entry))
            kwargs[key] = tuple(parsed)
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "FaultSchedule":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
