"""CoDel AQM (RFC 8289) with the paper's per-station low-rate tuning.

CoDel is applied separately to each FQ-CoDel sub-queue.  The implementation
follows the RFC 8289 pseudocode: it tracks how long the *sojourn time* of
dequeued packets has continuously exceeded ``target`` and, once that
persists for ``interval``, enters a dropping state where drops are spaced
by ``interval / sqrt(count)``.

Section 3.1.1 of the paper observes that stock CoDel parameters
(target 5 ms / interval 100 ms) are too aggressive for slow WiFi stations
and switches to 50 ms / 300 ms when a station's estimated rate drops below
12 Mbps, with 2 s of hysteresis.  That policy lives in
:class:`PerStationCoDelTuner` so the queue structure can look up the
parameters for a station at dequeue time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from repro.core.packet import Packet

__all__ = [
    "CoDelParams",
    "CODEL_DEFAULT",
    "CODEL_SLOW_STATION",
    "CoDelState",
    "codel_dequeue",
    "PerStationCoDelTuner",
]


@dataclass(frozen=True)
class CoDelParams:
    """CoDel control parameters (microseconds)."""

    target_us: float = 5_000.0
    interval_us: float = 100_000.0


#: Stock parameters: 5 ms target, 100 ms interval.
CODEL_DEFAULT = CoDelParams()
#: Low-rate parameters from Section 3.1.1: 50 ms target, 300 ms interval.
CODEL_SLOW_STATION = CoDelParams(target_us=50_000.0, interval_us=300_000.0)
#: Rate threshold below which the low-rate parameters apply (bps).
SLOW_RATE_THRESHOLD_BPS = 12_000_000.0
#: Minimum time between parameter changes (hysteresis), Section 3.1.1.
TUNE_HYSTERESIS_US = 2_000_000.0


class _PacketQueue(Protocol):
    """What CoDel needs from a queue: pop its head packet."""

    def pop_head(self) -> Optional[Packet]: ...


@dataclass
class CoDelState:
    """Per-queue CoDel state machine variables (RFC 8289 §5.3)."""

    first_above_time_us: float = 0.0
    drop_next_us: float = 0.0
    count: int = 0
    lastcount: int = 0
    dropping: bool = False

    #: Total packets this state machine has dropped (for accounting).
    drops: int = field(default=0, compare=False)
    #: Telemetry hook: called as ``on_transition(kind, now_us)`` with
    #: ``kind`` in {'enter_drop', 'exit_drop'} whenever ``dropping``
    #: flips.  ``None`` (the default) costs one identity test per
    #: dequeue; it survives :meth:`reset` so recycled queues stay traced.
    on_transition: Optional[Callable[[str, float], None]] = field(
        default=None, compare=False, repr=False
    )

    def reset(self) -> None:
        """Forget all control state (used when a queue is recycled)."""
        self.first_above_time_us = 0.0
        self.drop_next_us = 0.0
        self.count = 0
        self.lastcount = 0
        self.dropping = False


def _control_law(t_us: float, interval_us: float, count: int) -> float:
    """Next drop time: ``t + interval / sqrt(count)``."""
    return t_us + interval_us / math.sqrt(count)


def _should_drop(
    pkt: Optional[Packet],
    state: CoDelState,
    now_us: float,
    params: CoDelParams,
) -> bool:
    """RFC 8289 ``dodequeue``: has sojourn stayed above target an interval?"""
    if pkt is None:
        state.first_above_time_us = 0.0
        return False
    sojourn_us = now_us - pkt.enqueue_us
    if sojourn_us < params.target_us:
        state.first_above_time_us = 0.0
        return False
    if state.first_above_time_us == 0.0:
        state.first_above_time_us = now_us + params.interval_us
        return False
    return now_us >= state.first_above_time_us


def codel_dequeue(
    queue: _PacketQueue,
    state: CoDelState,
    now_us: float,
    params: CoDelParams,
    on_drop: Optional[Callable[[Packet], None]] = None,
) -> Optional[Packet]:
    """Dequeue one packet through CoDel, dropping head packets as needed.

    Returns the packet to transmit, or ``None`` if the queue emptied.
    ``on_drop`` is invoked for every packet CoDel discards so the enclosing
    structure can maintain its byte/packet accounting.
    """

    def drop(pkt: Packet) -> None:
        state.drops += 1
        if on_drop is not None:
            on_drop(pkt)

    pkt = queue.pop_head()
    ok_to_drop = _should_drop(pkt, state, now_us, params)
    was_dropping = state.dropping

    if state.dropping:
        if not ok_to_drop:
            state.dropping = False
        else:
            while state.dropping and now_us >= state.drop_next_us:
                assert pkt is not None
                drop(pkt)
                state.count += 1
                pkt = queue.pop_head()
                if not _should_drop(pkt, state, now_us, params):
                    state.dropping = False
                else:
                    state.drop_next_us = _control_law(
                        state.drop_next_us, params.interval_us, state.count
                    )
    elif ok_to_drop:
        assert pkt is not None
        drop(pkt)
        pkt = queue.pop_head()
        state.dropping = True
        # If we have gone through a recent dropping cycle, resume close to
        # the drop rate we left off at rather than restarting from 1.
        delta = state.count - state.lastcount
        if delta > 1 and now_us - state.drop_next_us < 16 * params.interval_us:
            state.count = delta
        else:
            state.count = 1
        state.lastcount = state.count
        state.drop_next_us = _control_law(now_us, params.interval_us, state.count)

    if state.on_transition is not None and state.dropping != was_dropping:
        state.on_transition(
            "enter_drop" if state.dropping else "exit_drop", now_us
        )

    return pkt


class PerStationCoDelTuner:
    """Chooses CoDel parameters per station (Section 3.1.1).

    The access point feeds rate estimates in via :meth:`update_rate`
    (in the kernel this comes from the rate-control algorithm); queue
    structures call :meth:`params_for` at dequeue time.  Parameter changes
    are rate-limited by two seconds of hysteresis.
    """

    def __init__(
        self,
        threshold_bps: float = SLOW_RATE_THRESHOLD_BPS,
        hysteresis_us: float = TUNE_HYSTERESIS_US,
        enabled: bool = True,
    ) -> None:
        self.threshold_bps = threshold_bps
        self.hysteresis_us = hysteresis_us
        self.enabled = enabled
        self._params: dict[int, CoDelParams] = {}
        self._last_change_us: dict[int, float] = {}

    def update_rate(self, station: int, rate_bps: float, now_us: float) -> None:
        """Record a new rate estimate for ``station``; maybe switch params."""
        if not self.enabled:
            return
        current = self._params.get(station, CODEL_DEFAULT)
        wanted = (
            CODEL_SLOW_STATION if rate_bps < self.threshold_bps else CODEL_DEFAULT
        )
        if wanted is current:
            return
        last = self._last_change_us.get(station)
        if last is not None and now_us - last < self.hysteresis_us:
            return
        self._params[station] = wanted
        self._last_change_us[station] = now_us

    def forget(self, station: int) -> None:
        """Drop state for a removed station (roaming handoff).

        The hysteresis clock restarts if the station later re-joins this
        cell, exactly as a fresh association would.
        """
        self._params.pop(station, None)
        self._last_change_us.pop(station, None)

    def params_for(self, station: Optional[int]) -> CoDelParams:
        """Current CoDel parameters for ``station`` (default when unknown)."""
        if station is None:
            return CODEL_DEFAULT
        return self._params.get(station, CODEL_DEFAULT)
