"""Airtime fairness scheduler (Algorithm 3) with the sparse-station
optimisation.

The scheduler decides which *station* gets to build the next aggregate.
It is FQ-CoDel's DRR loop with stations in place of flows and the deficit
accounted in microseconds of airtime instead of bytes:

* each station has one deficit per access category (four per station in
  the paper; here one scheduler instance exists per in-use AC);
* the deficit is charged with the *measured* duration of each transmission
  at TX-completion time — and, unlike the DTT scheduler [6] the paper
  improves upon, also with the duration of *received* (uplink) frames,
  which is what lets the AP partially enforce fairness on client-driven
  traffic (Figure 6);
* stations that were idle enter via ``new_stations`` and get one round of
  scheduling priority (the sparse-station optimisation, Section 3.2 item
  3), with FQ-CoDel's anti-gaming rule: an emptied new station is rotated
  through the old list before being forgotten.

The scheduler is driven through three hooks supplied by the access point:
``has_backlog(station)``, ``build_aggregate(station)`` (returns the number
of packets queued to hardware) and ``hw_full()``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

__all__ = ["AirtimeScheduler", "DEFAULT_AIRTIME_QUANTUM_US"]

#: Scheduling quantum in µs of airtime.  The value sets fairness
#: granularity, not shares; one ~MTU transmission at a mid-range rate.
DEFAULT_AIRTIME_QUANTUM_US = 1_000.0


class AirtimeScheduler:
    """Deficit-based airtime fairness scheduler (Algorithm 3).

    Parameters
    ----------
    has_backlog, build_aggregate, hw_full:
        Hooks into the access point (see module docstring).
    quantum_us:
        Airtime quantum added when a station's deficit goes non-positive.
    sparse_enabled:
        The sparse-station optimisation; disable for the Figure 8 ablation.
    account_rx:
        Charge received (uplink) airtime to the sending station's deficit;
        disable for the bidirectional-fairness ablation.
    trace, clock:
        A trace bus for the ``sched`` records, stamped by ``clock`` (the
        simulated time in µs).
    """

    def __init__(
        self,
        has_backlog: Callable[[int], bool],
        build_aggregate: Callable[[int], int],
        hw_full: Callable[[], bool],
        quantum_us: float = DEFAULT_AIRTIME_QUANTUM_US,
        sparse_enabled: bool = True,
        account_rx: bool = True,
        trace=None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._has_backlog = has_backlog
        self._build_aggregate = build_aggregate
        self._hw_full = hw_full
        self.quantum_us = quantum_us
        self.sparse_enabled = sparse_enabled
        self.account_rx = account_rx

        self.new_stations: Deque[int] = deque()
        self.old_stations: Deque[int] = deque()
        #: Station -> 'new' / 'old' for exactly the stations on a list.
        #: :meth:`wake` is a no-op iff the station is in here, so the
        #: access point tests membership inline before calling it.
        self.listed: Dict[int, str] = {}
        self.deficits: Dict[int, float] = {}

        # Prebound trace emitters; None when untraced (one identity test
        # per site).
        self._now = clock
        self._em_enter = self._em_drop = None
        self._em_charge_tx = self._em_charge_rx = None
        channel = trace.channel("sched") if trace is not None else None
        if channel is not None:
            self._em_enter = channel.emitter("station_enter", (
                ("station", "q"), ("list", "s"),
            ))
            self._em_drop = channel.emitter("station_drop", (
                ("station", "q"),
            ))
            charge = (("station", "q"), ("us", "d"), ("deficit", "d"))
            self._em_charge_tx = channel.emitter(
                "deficit_charge", charge + (("dir", "c", "tx"),))
            self._em_charge_rx = channel.emitter(
                "deficit_charge", charge + (("dir", "c", "rx"),))

    def deficit_snapshot(self) -> Dict[int, float]:
        """Current per-station deficits (sampler probe input)."""
        return dict(self.deficits)

    # ------------------------------------------------------------------
    # Station lifecycle
    # ------------------------------------------------------------------
    def wake(self, station: int) -> None:
        """Make ``station`` schedulable (called when packets arrive for it).

        Newly active stations join ``new_stations`` for one round of
        priority; with the optimisation disabled they join the old list
        directly.
        """
        if station in self.listed:
            return
        # A (re)activating station starts with a fresh quantum (fq_codel
        # semantics): this is what makes the new-station priority real —
        # a zero or negative deficit would bounce the station to the old
        # list before its priority round.  The anti-gaming rule (one pass
        # through the old list after emptying) bounds the advantage.
        self.deficits[station] = self.quantum_us
        if self.sparse_enabled:
            self.new_stations.append(station)
            self.listed[station] = "new"
        else:
            self.old_stations.append(station)
            self.listed[station] = "old"
        if self._em_enter is not None:
            self._em_enter(self._now(), station, self.listed[station])

    def _move_to_old(self, station: int) -> None:
        self._remove(station)
        self.old_stations.append(station)
        self.listed[station] = "old"

    def _remove(self, station: int) -> None:
        member = self.listed.pop(station, None)
        if member == "new":
            self.new_stations.remove(station)
        elif member == "old":
            self.old_stations.remove(station)

    def drop(self, station: int) -> None:
        """Forget ``station`` entirely (churn detach).

        Removes it from both scheduling lists *and* deletes its deficit,
        so a later :meth:`wake` treats it as a brand-new station (fresh
        quantum, one round of sparse-station priority) instead of
        resuming a stale debt from before it left.
        """
        self._remove(station)
        self.deficits.pop(station, None)
        if self._em_drop is not None:
            self._em_drop(self._now(), station)

    # ------------------------------------------------------------------
    # Airtime accounting
    # ------------------------------------------------------------------
    def report_tx_airtime(self, station: int, airtime_us: float) -> None:
        """Charge ``station`` for a completed transmission to it."""
        self.deficits[station] = self.deficits.get(station, 0.0) - airtime_us
        if self._em_charge_tx is not None:
            self._em_charge_tx(self._now(), station, airtime_us,
                               self.deficits[station])

    def report_rx_airtime(self, station: int, airtime_us: float) -> None:
        """Charge ``station`` for airtime of frames received *from* it."""
        if self.account_rx:
            self.deficits[station] = self.deficits.get(station, 0.0) - airtime_us
            if self._em_charge_rx is not None:
                self._em_charge_rx(self._now(), station, airtime_us,
                                   self.deficits[station])

    # ------------------------------------------------------------------
    # Algorithm 3
    # ------------------------------------------------------------------
    def schedule(self) -> None:
        """Fill the hardware queue (Algorithm 3's ``schedule`` function)."""
        hw_full = self._hw_full
        new_stations = self.new_stations
        old_stations = self.old_stations
        deficits = self.deficits
        has_backlog = self._has_backlog
        build_aggregate = self._build_aggregate
        while not hw_full():
            if new_stations:
                station = new_stations[0]
            elif old_stations:
                station = old_stations[0]
            else:
                return

            deficit = deficits.get(station, 0.0)
            if deficit <= 0:
                deficits[station] = deficit + self.quantum_us
                self._move_to_old(station)
                continue

            if not has_backlog(station):
                if self.listed[station] == "new":
                    self._move_to_old(station)
                else:
                    self._remove(station)
                continue

            built = build_aggregate(station)
            if built <= 0:
                # Defensive: backlogged station yielded nothing (should not
                # happen); drop it from scheduling instead of spinning.
                self._remove(station)
