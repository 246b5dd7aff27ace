"""Round-robin station scheduler — the stock driver's behaviour.

The unmodified ath9k driver services backlogged TIDs in round-robin order,
one aggregate per turn (Figure 2, "RR").  Equal transmission *opportunities*
produce throughput fairness, which is exactly the 802.11 performance
anomaly: a slow station's turns occupy far more airtime than a fast
station's (eq. 4, the "otherwise" branch).

This scheduler drives the FIFO, FQ-CoDel, and FQ-MAC configurations; only
the Airtime configuration replaces it with
:class:`repro.core.airtime.AirtimeScheduler`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Set

__all__ = ["RoundRobinScheduler"]


class RoundRobinScheduler:
    """Serve backlogged stations one aggregate at a time, in turn.

    Exposes the same interface as
    :class:`repro.core.airtime.AirtimeScheduler` so the access point can
    swap schedulers per configuration; the airtime-report hooks are
    accepted and ignored.
    """

    def __init__(
        self,
        has_backlog: Callable[[int], bool],
        build_aggregate: Callable[[int], int],
        hw_full: Callable[[], bool],
    ) -> None:
        self._has_backlog = has_backlog
        self._build_aggregate = build_aggregate
        self._hw_full = hw_full
        self._ring: Deque[int] = deque()
        #: The stations on the ring; :meth:`wake` is a no-op iff the
        #: station is in here (the access point tests that inline).
        self.listed: Set[int] = set()

    def wake(self, station: int) -> None:
        """Add ``station`` to the service ring if not already present."""
        if station not in self.listed:
            self._ring.append(station)
            self.listed.add(station)

    def drop(self, station: int) -> None:
        """Forget ``station`` entirely (churn detach)."""
        if station in self.listed:
            self._ring.remove(station)
            self.listed.discard(station)

    # Airtime hooks: the stock scheduler is airtime-oblivious.
    def report_tx_airtime(self, station: int, airtime_us: float) -> None:
        return None

    def report_rx_airtime(self, station: int, airtime_us: float) -> None:
        return None

    # Telemetry: nothing scheduler-specific to trace, but the access point
    # calls set_trace on whichever scheduler it holds.
    def set_trace(self, trace, now_fn=None) -> None:
        return None

    def deficit_snapshot(self) -> Dict[int, float]:
        return {}

    def schedule(self) -> None:
        """Fill the hardware queue, one aggregate per backlogged station.

        Structured for the per-packet no-op case: at saturation nearly
        every call finds the hardware queue already full and returns
        after two cheap tests, before any local hoisting.
        """
        ring = self._ring
        if not ring:
            return
        hw_full = self._hw_full
        if hw_full():
            return
        has_backlog = self._has_backlog
        build_aggregate = self._build_aggregate
        listed = self.listed
        while True:
            station = ring[0]
            if not has_backlog(station):
                # hw_full is pure, so skipping its re-check here is
                # outcome-identical to re-testing the loop condition.
                ring.popleft()
                listed.discard(station)
                if not ring:
                    return
                continue
            built = build_aggregate(station)
            ring.rotate(-1)
            if built <= 0:
                # Defensive against a disagreeing backlog/build pair.
                ring.remove(station)
                listed.discard(station)
            if not ring or hw_full():
                return
