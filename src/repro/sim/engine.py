"""Discrete-event simulation engine.

The engine is a plain priority-queue event loop with a microsecond clock.
Everything in the simulator — medium arbitration, transmission completions,
traffic sources, TCP timers — runs as callbacks scheduled on one
:class:`Simulator` instance.

Time is kept in *microseconds* as a float.  All of the 802.11 timing
constants the paper's analytical model uses are naturally expressed in
microseconds, which keeps arithmetic readable and avoids sub-nanosecond
float noise dominating comparisons.

The event loop is the hot path of every experiment: a 30-second TCP run
executes millions of callbacks.  The heap therefore holds plain
``(time, priority, seq, callback, arg)`` tuples — tuple comparison stops
at the unique ``seq`` tie-breaker, so Python never compares payloads
during sifting, and the loop calls ``callback(arg)`` for every entry
with no per-kind branch.  Fire-and-forget work (packet deliveries, TX
completions) goes through :meth:`Simulator.schedule_call`; anything that
can be cancelled or re-armed (TCP's retransmission and delayed-ack
timers, :class:`PeriodicTimer`) is a :class:`Timer`, whose re-arm costs
a heap push only when it moves the timer *earlier*, so the heap never
holds a cancelled entry that nothing will pop.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

__all__ = ["Simulator", "SimulationError", "Timer"]

#: Microseconds per second, for conversions at API boundaries.
US_PER_SEC = 1_000_000.0
US_PER_MS = 1_000.0

#: Process-wide count of events executed by *all* simulators.  The runner
#: reads deltas of this around a run to report events/sec without needing
#: a handle on the simulators an experiment creates internally.
_EVENTS_TOTAL = 0

class _NoArg:
    """Sentinel: a heap entry whose callback takes no argument."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<no-arg>"


_NO_ARG = _NoArg()


def events_processed_total() -> int:
    """Total events executed by all simulators in this process."""
    return _EVENTS_TOTAL


class SimulationError(RuntimeError):
    """Raised for misuse of the simulator (e.g. scheduling in the past)."""


class Timer:
    """A callback that can be armed, re-armed and cancelled.

    :meth:`arm` gives the timer the key ``(now + delay, priority, seq)``,
    taking ``seq`` from the simulator's tie-break counter exactly as
    :meth:`Simulator.schedule_call` would, and the callback runs at that
    key's position in the event order.  Re-arming replaces the key and
    :meth:`cancel` clears it; neither touches the heap.  A heap entry is
    pushed only when the new key is earlier than every entry the timer
    already has queued, so a timer re-armed later on every ACK (TCP's
    RTO) costs one heap entry per expiry, not one per ACK.

    Invariant (what keeps runs bit-identical to an eager cancel +
    reschedule): while the timer is armed, its key or an earlier entry of
    its own is in the heap.  An entry that pops before the armed key is
    stale; it runs nothing and re-pushes the armed key verbatim (no new
    seq) when that key is earlier than the timer's remaining entries.
    So the callback runs at the same ``(time, priority, seq)`` position,
    seqs are consumed in the same number and order, and each stale pop
    re-pushes at most once.  A stale pop is not counted as an executed
    event, but it does count towards the stall guard.
    """

    __slots__ = ("_sim", "callback", "_priority", "when", "_seq", "_queued")

    def __init__(
        self,
        sim: "Simulator",
        callback: Callable[[], None],
        priority: int = 0,
    ) -> None:
        self._sim = sim
        self.callback = callback
        self._priority = priority  # fixed: arm() relies on it
        #: Firing time of the armed key, or ``None`` when disarmed.
        self.when: Optional[float] = None
        self._seq = -1
        #: Times of this timer's heap entries, latest first: each push is
        #: earlier than all queued ones, so ``_queued[-1]`` pops next.
        self._queued: List[float] = []

    def arm(self, delay_us: float) -> None:
        """(Re-)arm to fire ``delay_us`` from now, replacing any key."""
        if delay_us < 0:
            raise SimulationError(f"cannot schedule {delay_us}us in the past")
        sim = self._sim
        time = sim.now + delay_us
        seq = next(sim._seq)
        self.when = time
        self._seq = seq
        queued = self._queued
        # A later seq never sorts first at an equal (time, priority), so
        # the new key is earlier than a queued entry iff its time is.
        if not queued or time < queued[-1]:
            queued.append(time)
            heapq.heappush(sim._queue,
                           (time, self._priority, seq, self._expire, seq))

    def cancel(self) -> None:
        """Disarm; a no-op when the timer is not armed."""
        self.when = None
        self._seq = -1

    def _expire(self, seq: int) -> None:
        queued = self._queued
        queued.pop()
        if seq == self._seq:
            self.when = None
            self._seq = -1
            self.callback()
            return
        global _EVENTS_TOTAL
        sim = self._sim
        sim.events_processed -= 1
        _EVENTS_TOTAL -= 1
        when = self.when
        if when is not None and (not queued or when < queued[-1]):
            queued.append(when)
            heapq.heappush(sim._queue,
                           (when, self._priority, self._seq, self._expire,
                            self._seq))


class Simulator:
    """Priority-queue discrete event loop with a µs clock.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(10.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [10.0]
    """

    def __init__(self) -> None:
        #: Heap of ``(time, priority, seq, callback, arg)``.
        self._queue: list[tuple] = []
        self._seq = itertools.count()
        self.now: float = 0.0
        self._running = False
        #: Events executed by this simulator (stale timer pops excluded).
        self.events_processed = 0
        #: No-progress watchdog: maximum events executed at one timestamp
        #: before the loop declares a livelock (None = disabled).
        self._stall_limit: Optional[int] = None
        #: The ``until_us`` of the current/last :meth:`run` call — a
        #: failed run's evidence says how far short of it the clock got.
        self.run_until_us: Optional[float] = None
        #: When the measurement window opened (:meth:`start_window`).
        self.window_start_us = 0.0
        self._window_subscribers: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay_us: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> Timer:
        """Schedule ``callback`` to run ``delay_us`` microseconds from now.

        ``priority`` breaks ties among events at the same timestamp
        (lower runs first).  Returns the armed :class:`Timer`, which can
        be cancelled or re-armed.
        """
        timer = Timer(self, callback, priority)
        timer.arm(delay_us)
        return timer

    def schedule_call(
        self,
        delay_us: float,
        callback: Callable[..., None],
        arg: Any = _NO_ARG,
        priority: int = 0,
    ) -> None:
        """Fire-and-forget fast path: schedule without a :class:`Timer`.

        Same ordering semantics as :meth:`schedule` (one seq is consumed
        from the same tie-break counter), but no Timer is allocated, so
        the entry cannot be cancelled.  ``arg``, when given, is passed to
        ``callback`` at fire time — hot paths use it to avoid allocating
        a closure per scheduled call.
        """
        if delay_us < 0:
            raise SimulationError(f"cannot schedule {delay_us}us in the past")
        heapq.heappush(
            self._queue,
            (self.now + delay_us, priority, next(self._seq), callback, arg),
        )

    def schedule_call_at(
        self,
        time_us: float,
        callback: Callable[..., None],
        arg: Any = _NO_ARG,
        priority: int = 0,
    ) -> None:
        """:meth:`schedule_call` at an absolute timestamp.

        The entry carries ``time_us`` verbatim — no ``now + delay``
        round-trip — so sources replaying a precomputed timestamp array
        (:class:`repro.traffic.udp.UdpDownloadFlow`) hit the exact same
        floats a repeated ``now + interval`` chain would produce.
        """
        if time_us < self.now:
            raise SimulationError(f"cannot schedule t={time_us}us in the past")
        heapq.heappush(
            self._queue, (time_us, priority, next(self._seq), callback, arg)
        )

    def schedule_at(
        self,
        time_us: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> Timer:
        """Schedule ``callback`` at absolute simulation time ``time_us``."""
        return self.schedule(time_us - self.now, callback, priority)

    def call_soon(self, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` at the current time (after pending events)."""
        return self.schedule(0.0, callback)

    # ------------------------------------------------------------------
    # Measurement window
    # ------------------------------------------------------------------
    def at_window_start(self, callback: Callable[[], None]) -> Callable[[], None]:
        """Call ``callback()`` when the measurement window opens; the
        returned call unsubscribes it (a flow that finishes early)."""
        subscribers = self._window_subscribers
        subscribers.append(callback)
        return lambda: subscribers.remove(callback)

    def start_window(self) -> None:
        """Open the measurement window now and call every subscriber in
        subscription order (each drops or snapshots its warm-up state).
        Schedules nothing and draws no random number."""
        self.window_start_us = self.now
        for callback in self._window_subscribers:
            callback()

    # ------------------------------------------------------------------
    # Watchdog
    # ------------------------------------------------------------------
    def set_stall_guard(self, max_events_per_timestamp: Optional[int]) -> None:
        """Arm (or disarm, with ``None``) the no-progress watchdog.

        A livelocked simulation — components endlessly rescheduling each
        other with zero-delay callbacks — never advances the clock, so
        ``run(until_us=...)`` would spin forever.  With the guard armed,
        executing more than ``max_events_per_timestamp`` events without
        the clock moving raises :class:`SimulationError` instead.  The
        check costs one ``is not None`` test per event when disarmed.
        """
        if max_events_per_timestamp is not None and max_events_per_timestamp <= 0:
            raise ValueError("max_events_per_timestamp must be positive")
        self._stall_limit = max_events_per_timestamp

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until_us: Optional[float] = None) -> None:
        """Run events until the queue drains or the clock passes ``until_us``.

        When ``until_us`` is given, the clock is left exactly at ``until_us``
        even if the queue drained earlier, so measurement windows have a
        well-defined length.

        Cyclic garbage collection is suspended for the duration of the
        loop (and restored on exit, even on error): the hot path
        allocates only acyclic objects — heap tuples, packets, deques —
        that refcounting frees immediately, so gen-0 scans triggered by
        the allocation rate find nothing and only cost time.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if until_us is not None and until_us != until_us:
            # Every event time compares False against NaN: the loop would
            # never reach its bound and saturating sources never drain.
            raise SimulationError("until_us must not be NaN")
        self._running = True
        self.run_until_us = until_us
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        global _EVENTS_TOTAL
        queue = self._queue
        heappop = heapq.heappop
        no_arg = _NO_ARG
        until = float("inf") if until_us is None else until_us
        executed = 0
        stall_limit = self._stall_limit
        stall_ts = -1.0
        stall_count = 0
        now = self.now
        try:
            while queue:
                if queue[0][0] > until:
                    break
                time, _prio, _seq, callback, arg = heappop(queue)
                if time < now:  # pragma: no cover - defensive
                    raise SimulationError("event queue went backwards")
                self.now = now = time
                executed += 1
                if stall_limit is not None:
                    if time == stall_ts:
                        stall_count += 1
                        if stall_count > stall_limit:
                            raise SimulationError(
                                f"no-progress stall: {stall_count} events "
                                f"executed at t={time}us without the "
                                "clock advancing"
                            )
                    else:
                        stall_ts = time
                        stall_count = 1
                if arg is no_arg:
                    callback()
                else:
                    callback(arg)
            if until_us is not None and self.now < until_us:
                self.now = until_us
        finally:
            self._running = False
            self.events_processed += executed
            _EVENTS_TOTAL += executed
            if gc_was_enabled:
                gc.enable()

    def step(self) -> bool:
        """Pop and run one heap entry.  Returns False if the queue is empty.

        A stale :class:`Timer` entry runs nothing (it may re-push its
        timer's armed key), but still counts as the step.
        """
        global _EVENTS_TOTAL
        if not self._queue:
            return False
        time, _prio, _seq, callback, arg = heapq.heappop(self._queue)
        self.now = time
        self.events_processed += 1
        _EVENTS_TOTAL += 1
        if arg is _NO_ARG:
            callback()
        else:
            callback(arg)
        return True

    @property
    def pending_events(self) -> int:
        """Entries in the heap.

        A cancelled or re-armed :class:`Timer` keeps its queued entry
        until it pops, so this counts that entry too.
        """
        return len(self._queue)

    # ------------------------------------------------------------------
    # Convenience conversions
    # ------------------------------------------------------------------
    @property
    def now_sec(self) -> float:
        """Current simulation time in seconds."""
        return self.now / US_PER_SEC

    @staticmethod
    def sec(seconds: float) -> float:
        """Convert seconds to simulator microseconds."""
        return seconds * US_PER_SEC

    @staticmethod
    def ms(millis: float) -> float:
        """Convert milliseconds to simulator microseconds."""
        return millis * US_PER_MS


@dataclass
class PeriodicTimer:
    """Re-arming timer built on :class:`Timer`.

    Calls ``callback`` every ``interval_us`` until :meth:`stop`.  The first
    call fires after ``first_delay_us`` (defaults to one interval).
    """

    sim: Simulator
    interval_us: float
    callback: Callable[[], None]
    _timer: Timer = field(init=False, repr=False)
    _stopped: bool = False

    def __post_init__(self) -> None:
        self._timer = Timer(self.sim, self._fire)

    def start(self, first_delay_us: Optional[float] = None) -> "PeriodicTimer":
        delay = self.interval_us if first_delay_us is None else first_delay_us
        self._stopped = False
        self._timer.arm(delay)
        return self

    def _fire(self) -> None:
        self.callback()
        if not self._stopped:
            self._timer.arm(self.interval_us)

    def stop(self) -> None:
        self._stopped = True
        self._timer.cancel()


__all__.append("PeriodicTimer")
__all__.append("US_PER_SEC")
__all__.append("US_PER_MS")
__all__.append("events_processed_total")
