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
executes millions of callbacks, and TCP/CoDel timers cancel events
constantly.  The heap therefore holds plain ``(time, priority, seq,
item, arg)`` tuples — tuple comparison stops at the unique ``seq``
tie-breaker, so Python never calls a comparison method on an
:class:`Event` during sifting.  ``item`` is either an :class:`Event`
(the cancellable API returned by :meth:`Simulator.schedule`) or a bare
callable pushed by the :meth:`Simulator.schedule_call` fast path, which
skips the Event allocation entirely for fire-and-forget work (packet
deliveries, timer ticks, TX completions).  The loop binds the queue and
``heappop`` to locals inside :meth:`Simulator.run` and compacts the heap
lazily once cancelled entries outnumber live ones.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["Event", "Simulator", "SimulationError"]

#: Microseconds per second, for conversions at API boundaries.
US_PER_SEC = 1_000_000.0
US_PER_MS = 1_000.0

#: Process-wide count of events executed by *all* simulators.  The runner
#: reads deltas of this around a run to report events/sec without needing
#: a handle on the simulators an experiment creates internally.
_EVENTS_TOTAL = 0

#: Compact the heap only once it holds at least this many dead entries
#: (and they outnumber the live ones) — tiny queues never pay for it.
_COMPACT_MIN_CANCELLED = 64

#: Process-wide progress hook, set by the runner's heartbeat machinery
#: (:func:`set_default_progress`).  Module-level rather than per
#: Simulator because experiments create simulators internally — the
#: runner has no handle on them, exactly like the events counter above.
_PROGRESS_HOOK: Optional[Callable[["Simulator", int], None]] = None
_PROGRESS_INTERVAL = 0


def set_default_progress(
    hook: Optional[Callable[["Simulator", int], None]],
    interval_events: int = 200_000,
) -> None:
    """Install (or clear, with ``None``) the process-wide progress hook.

    Every :meth:`Simulator.run` loop entered afterwards calls
    ``hook(sim, executed)`` once per ``interval_events`` executed events.
    Cost when armed is one integer equality per event; when unarmed the
    loop carries a never-matching sentinel, so the hot path is unchanged.
    The hook runs inside the event loop — it must be fast and must not
    touch the simulation state.
    """
    global _PROGRESS_HOOK, _PROGRESS_INTERVAL
    if hook is not None and interval_events <= 0:
        raise ValueError("interval_events must be positive")
    _PROGRESS_HOOK = hook
    _PROGRESS_INTERVAL = interval_events if hook is not None else 0


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


@dataclass(slots=True)
class Event:
    """A scheduled callback.

    Heap entries order by ``(time, priority, seq)``; ``seq`` is a
    monotonically increasing tie-breaker so that events scheduled earlier
    run earlier, giving deterministic replay for a fixed RNG seed.  The
    Event object itself rides in the entry's payload slot and is never
    compared.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None]
    cancelled: bool = field(default=False)
    #: Owning simulator while the event sits in the heap; cleared when the
    #: event is popped so that late cancels don't corrupt the counters.
    sim: Optional["Simulator"] = field(default=None, repr=False)

    def cancel(self) -> None:
        """Mark the event so the loop skips it.

        Cancellation is O(1); the dead entry stays in the heap until it is
        popped or the simulator decides to compact.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self.sim is not None:
            self.sim._on_cancel()


def _entry_live(entry: tuple) -> bool:
    """True unless the entry wraps a cancelled :class:`Event`."""
    item = entry[3]
    return item.__class__ is not Event or not item.cancelled


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
        #: Heap of ``(time, priority, seq, Event-or-callable, arg)``.
        self._queue: list[tuple] = []
        self._seq = itertools.count()
        self.now: float = 0.0
        self._running = False
        self._pending = 0
        self._cancelled = 0
        #: Events executed by this simulator (cancelled pops excluded).
        self.events_processed = 0
        #: Lazy heap compactions performed (telemetry: how often the
        #: cancel-heavy workload actually pays the rebuild cost).
        self.compactions = 0
        #: No-progress watchdog: maximum events executed at one timestamp
        #: before the loop declares a livelock (None = disabled).
        self._stall_limit: Optional[int] = None
        #: The ``until_us`` of the current/last :meth:`run` call — lets
        #: progress hooks report completion and extrapolate an ETA.
        self.run_until_us: Optional[float] = None

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay_us: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` to run ``delay_us`` microseconds from now.

        ``priority`` breaks ties among events at the same timestamp
        (lower runs first).  Returns the :class:`Event`, which can be
        cancelled.
        """
        if delay_us < 0:
            raise SimulationError(f"cannot schedule {delay_us}us in the past")
        event = Event(
            self.now + delay_us, priority, next(self._seq), callback, False, self
        )
        heapq.heappush(
            self._queue, (event.time, priority, event.seq, event, _NO_ARG)
        )
        self._pending += 1
        return event

    def schedule_call(
        self,
        delay_us: float,
        callback: Callable[..., None],
        arg: Any = _NO_ARG,
        priority: int = 0,
    ) -> None:
        """Fire-and-forget fast path: schedule without an :class:`Event`.

        Same ordering semantics as :meth:`schedule` (one seq is consumed
        from the same tie-break counter), but no Event object is
        allocated, so the entry cannot be cancelled.  ``arg``, when
        given, is passed to ``callback`` at fire time — hot paths use it
        to avoid allocating a closure per scheduled call.
        """
        if delay_us < 0:
            raise SimulationError(f"cannot schedule {delay_us}us in the past")
        heapq.heappush(
            self._queue,
            (self.now + delay_us, priority, next(self._seq), callback, arg),
        )
        self._pending += 1

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
        (:class:`repro.sim.batch.BatchSource`) hit the exact same floats
        a repeated ``now + interval`` chain would produce.
        """
        if time_us < self.now:
            raise SimulationError(f"cannot schedule t={time_us}us in the past")
        heapq.heappush(
            self._queue, (time_us, priority, next(self._seq), callback, arg)
        )
        self._pending += 1

    def schedule_at(
        self,
        time_us: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time_us``."""
        return self.schedule(time_us - self.now, callback, priority)

    def call_soon(self, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at the current time (after pending events)."""
        return self.schedule(0.0, callback)

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _on_cancel(self) -> None:
        """A heap-resident event was cancelled: fix counters, maybe compact."""
        self._pending -= 1
        self._cancelled += 1
        if (
            self._cancelled >= _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 >= len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, in place.

        In-place (slice assignment) so that a ``queue`` local bound inside
        :meth:`run` stays valid across a compaction triggered by a callback.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if _entry_live(entry)]
        heapq.heapify(queue)
        self._cancelled = 0
        self.compactions += 1

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
        event_cls = Event
        no_arg = _NO_ARG
        until = float("inf") if until_us is None else until_us
        executed = 0
        stall_limit = self._stall_limit
        stall_ts = -1.0
        stall_count = 0
        progress_hook = _PROGRESS_HOOK
        progress_interval = _PROGRESS_INTERVAL
        # Sentinel -1 never equals executed (which starts at 1), so the
        # unarmed loop pays one always-false int compare per event.
        next_progress = progress_interval if progress_hook is not None else -1
        now = self.now
        try:
            while queue:
                if queue[0][0] > until:
                    break
                time, _prio, _seq, item, arg = heappop(queue)
                if item.__class__ is event_cls:
                    if item.cancelled:
                        self._cancelled -= 1
                        continue
                    item.sim = None
                    callback = item.callback
                else:
                    callback = item
                self._pending -= 1
                if time < now:  # pragma: no cover - defensive
                    raise SimulationError("event queue went backwards")
                self.now = now = time
                executed += 1
                if executed == next_progress:
                    progress_hook(self, executed)
                    next_progress += progress_interval
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
            if progress_hook is not None:
                # One terminal sample per run() call — short runs that
                # never reach the event interval still report their
                # final sim state, and a run dying mid-loop leaves its
                # last position for the post-mortem.
                progress_hook(self, executed)

    def step(self) -> bool:
        """Run a single event.  Returns False if the queue is empty."""
        global _EVENTS_TOTAL
        while self._queue:
            entry = heapq.heappop(self._queue)
            item = entry[3]
            if item.__class__ is Event:
                if item.cancelled:
                    self._cancelled -= 1
                    continue
                item.sim = None
                callback = item.callback
            else:
                callback = item
            self._pending -= 1
            self.now = entry[0]
            self.events_processed += 1
            _EVENTS_TOTAL += 1
            arg = entry[4]
            if arg is _NO_ARG:
                callback()
            else:
                callback(arg)
            return True
        return False

    @property
    def pending_events(self) -> int:
        """Number of live (scheduled and not cancelled) events."""
        return self._pending

    @property
    def heap_len(self) -> int:
        """Heap entries including dead ones (telemetry: compaction debt)."""
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
    """Re-arming timer built on :class:`Simulator`.

    Calls ``callback`` every ``interval_us`` until :meth:`stop`.  The first
    call fires after ``first_delay_us`` (defaults to one interval).
    """

    sim: Simulator
    interval_us: float
    callback: Callable[[], None]
    _event: Optional[Event] = None
    _stopped: bool = False

    def start(self, first_delay_us: Optional[float] = None) -> "PeriodicTimer":
        delay = self.interval_us if first_delay_us is None else first_delay_us
        self._stopped = False
        self._event = self.sim.schedule(delay, self._fire)
        return self

    def _fire(self) -> None:
        if self._stopped:
            return
        self.callback()
        if not self._stopped:
            self._event = self.sim.schedule(self.interval_us, self._fire)

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None


__all__.append("PeriodicTimer")
__all__.append("US_PER_SEC")
__all__.append("US_PER_MS")
__all__.append("events_processed_total")
__all__.append("set_default_progress")
