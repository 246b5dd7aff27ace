"""Batched event sources: replay precomputed arrival timestamps.

:class:`BatchSource` is the engine-side half of batched arrival
generation (the traffic-side half — the chunked timestamp generators —
lives in :mod:`repro.traffic.arrivals`).  A conventional
:class:`~repro.sim.engine.PeriodicTimer` pays, per arrival, for an
:class:`~repro.sim.engine.Event` allocation, a re-arm ``schedule`` call
and a ``now + interval`` float add inside the callback chain.
``BatchSource`` instead consumes an iterator of *chunks* — monotonically
increasing absolute timestamps, precomputed in bulk (numpy) — and
replays them through the :meth:`~repro.sim.engine.Simulator.schedule_call_at`
fast path: no Event objects, no closures, one chunk-generation step per
~thousands of arrivals.

The arrival stamped ``t`` fires at ``t + latency_us`` and the callback
is told ``t``: a source whose packets cross a fixed-delay hop before
anything can observe them folds "generate at ``t``" and "deliver at
``t + delay``" into one heap entry per arrival instead of two.

Scheduling contract (what keeps traces bit-identical to a
``PeriodicTimer`` feeding the same callback):

* exactly one heap entry is live per source at any time — the *next*
  arrival; the source fires, runs ``callback``, then re-arms for the
  following timestamp.  That is the same fire-then-re-arm order as
  ``PeriodicTimer._fire``, so the engine's tie-break sequence numbers
  are consumed in the same order and same quantity;
* timestamps are replayed *verbatim* (absolute, no ``now + delay``
  round-trip), so a chunk built by the same left-fold float arithmetic
  as a repeated ``now + interval`` chain lands on identical floats;
  ``t + latency_us`` is the one rounded add a ``schedule_call(latency_us,
  ...)`` made at ``t`` would perform;
* :meth:`stop` is a timestamp, not a cancellation — arrivals stamped
  before the stop instant still fire (they are already under way), the
  first one stamped at or after it pops inert and ends the chain.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Sequence

from repro.sim.engine import Simulator

__all__ = ["BatchSource"]


class BatchSource:
    """Fire ``callback(t)`` at ``t + latency_us`` for each ``t`` in ``chunks``.

    ``chunks`` is an iterator (or iterable) of non-empty sequences of
    absolute simulation times in microseconds, globally non-decreasing.
    The source drains one chunk at a time and pulls the next lazily, so
    an infinite generator keeps memory flat; the source ends when the
    iterator is exhausted.
    """

    __slots__ = (
        "sim",
        "callback",
        "latency_us",
        "_chunks",
        "_times",
        "_index",
        "_stop_at",
        "_schedule_at",
        "_fired_base",
    )

    def __init__(
        self,
        sim: Simulator,
        chunks: Iterable[Sequence[float]],
        callback: Callable[[float], None],
        latency_us: float = 0.0,
    ) -> None:
        if latency_us < 0:
            raise ValueError("latency must be non-negative")
        self.sim = sim
        self.callback = callback
        self.latency_us = latency_us
        self._chunks: Iterator[Sequence[float]] = iter(chunks)
        self._times: Sequence[float] = ()
        self._index = 0
        #: Only arrivals stamped before this fire: +inf while running,
        #: the stop instant after :meth:`stop`, -inf when idle.
        self._stop_at = -math.inf
        self._schedule_at = sim.schedule_call_at
        #: Arrivals fired in *completed* chunks; see :attr:`fired`.
        self._fired_base = 0

    @property
    def fired(self) -> int:
        """Arrivals delivered so far (diagnostics / tests).

        Derived (completed chunks + position in the current one) instead
        of counted, keeping one attribute update off the per-arrival
        path.
        """
        return self._fired_base + self._index

    def start(self) -> "BatchSource":
        """Arm the first arrival.  A source with no chunks is a no-op."""
        self._stop_at = math.inf
        if not self._next_chunk():
            self._stop_at = -math.inf
        return self

    def stop(self) -> None:
        """Generate nothing more: arrivals stamped from now on never fire."""
        self._stop_at = min(self._stop_at, self.sim.now)

    @property
    def active(self) -> bool:
        return self._stop_at == math.inf

    # ------------------------------------------------------------------
    def _next_chunk(self) -> bool:
        try:
            times = next(self._chunks)
        except StopIteration:
            return False
        if len(times) == 0:
            raise ValueError("BatchSource chunks must be non-empty")
        self._times = times
        self._index = 0
        self._schedule_at(times[0] + self.latency_us, self._fire)
        return True

    def _fire(self) -> None:
        index = self._index
        times = self._times
        stamp = times[index]
        if stamp >= self._stop_at:
            return
        # Advance before the callback so ``fired`` counts this arrival
        # while the callback runs.
        self._index = index = index + 1
        self.callback(stamp)
        if index < len(times):
            self._schedule_at(times[index] + self.latency_us, self._fire)
        else:
            self._fired_base += index
            self._index = 0
            if not self._next_chunk():
                self._stop_at = -math.inf
