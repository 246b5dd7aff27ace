"""Eager-cancellation event loop: the reference for :class:`Timer`.

This is the engine as it was before :class:`repro.sim.engine.Timer`: a
scheduled callback is an :class:`Event` that a cancel marks dead in
place, and re-arming a timer is cancel + a fresh ``schedule``.  Tests
drive it and :class:`repro.sim.engine.Simulator` with the same program
and require the same firings, in the same ``(time, priority, seq)``
order, with the same number of tie-break seqs consumed.  Compaction is
left out: it never changed which entry pops next.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

_NO_ARG = object()


class Event:
    """A scheduled callback that a cancel marks dead in place."""

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class EagerSimulator:
    """The subset of the engine API the timer and TCP tests drive."""

    def __init__(self) -> None:
        self._queue: list = []
        self._seq = itertools.count()
        self.now = 0.0
        self.events_processed = 0

    def schedule(self, delay_us: float, callback: Callable[[], None],
                 priority: int = 0) -> Event:
        if delay_us < 0:
            raise ValueError("cannot schedule in the past")
        event = Event(self.now + delay_us, callback)
        heapq.heappush(self._queue, (event.time, priority, next(self._seq),
                                     event, _NO_ARG))
        return event

    def schedule_call(self, delay_us: float, callback: Callable[..., None],
                      arg: Any = _NO_ARG, priority: int = 0) -> None:
        heapq.heappush(self._queue, (self.now + delay_us, priority,
                                     next(self._seq), callback, arg))

    def run(self, until_us: Optional[float] = None) -> None:
        until = float("inf") if until_us is None else until_us
        queue = self._queue
        while queue and queue[0][0] <= until:
            time, _prio, _seq, item, arg = heapq.heappop(queue)
            if isinstance(item, Event):
                if item.cancelled:
                    continue
                callback = item.callback
            else:
                callback = item
            self.now = time
            self.events_processed += 1
            if arg is _NO_ARG:
                callback()
            else:
                callback(arg)
        if until_us is not None and self.now < until_us:
            self.now = until_us


class EagerTimer:
    """Today's re-armable timer written as cancel + reschedule."""

    def __init__(self, sim: EagerSimulator, callback: Callable[[], None],
                 priority: int = 0) -> None:
        self._sim = sim
        self.callback = callback
        self.priority = priority
        self._event: Optional[Event] = None

    @property
    def when(self) -> Optional[float]:
        return None if self._event is None else self._event.time

    def arm(self, delay_us: float) -> None:
        if self._event is not None:
            self._event.cancel()
        self._event = self._sim.schedule(delay_us, self._fire, self.priority)

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self.callback()
