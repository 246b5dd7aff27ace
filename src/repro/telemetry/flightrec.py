"""Failure evidence: what a run knew when it raised.

A failed simulation is normally a one-line post-mortem — an exception
string — with the evidence gone: the in-memory trace ring, the watchdog
state and the streaming accumulators die with the process.  When a run
raises, the runner calls :func:`evidence` in the process that raised and
puts the result on the run's
:class:`~repro.runner.executor.FailedResult`, so it crosses the pool
boundary by pickling and lands in the run record (``--manifest-out``):

* engine state (sim clock, events executed, pending events),
* watchdog state (stall-detector violations, the conservation balance),
* the streaming-statistics snapshot (sketches, drop funnel, Jain series),
* the newest :data:`RING_TAIL_RECORDS` trace records and the ring's
  drop count.

Registration uses a module-global weak reference: every testbed
(:class:`~repro.topology.campus.CampusTestbed`) registers itself at
construction and the runner asks "whoever is active" at exception time
— no plumbing through the experiment functions, and a dead testbed
never keeps its simulator alive.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Optional

__all__ = ["RING_TAIL_RECORDS", "evidence", "register"]

#: How many of the newest trace records the evidence retains.
RING_TAIL_RECORDS = 512

#: Weak reference to the most recently constructed testbed (None when
#: nothing is registered or the testbed has been collected).
_active: Optional["weakref.ReferenceType"] = None


def register(testbed: Any) -> None:
    """Mark ``testbed`` as the active simulation (``None`` forgets it).

    Weak: registration never extends the testbed's lifetime, and a
    subsequent registration simply replaces the previous one (runs are
    sequential within a process).
    """
    global _active
    _active = None if testbed is None else weakref.ref(testbed)


def evidence() -> Optional[Dict[str, Any]]:
    """The registered testbed's state, or ``None`` when there is none.

    Never raises: gathering evidence must not mask the original failure,
    so a testbed that cannot be read yields ``{"unavailable": reason}``.
    """
    testbed = _active() if _active is not None else None
    if testbed is None:
        return None
    try:
        return _gather(testbed)
    except Exception as exc:
        return {"unavailable": f"{type(exc).__name__}: {exc}"}


def _gather(testbed: Any) -> Dict[str, Any]:
    sim = testbed.sim
    options = testbed.options
    found: Dict[str, Any] = {
        "options": {
            "scheme": getattr(options.scheme, "name", str(options.scheme)),
            "seed": options.seed,
            "strict": options.strict,
            "stations": len(testbed.stations),
        },
        "engine": {
            "t_sim_us": sim.now,
            "run_until_us": sim.run_until_us,
            "events_processed": sim.events_processed,
            "pending_events": sim.pending_events,
        },
    }

    watchdog: Dict[str, Any] = {}
    detector = getattr(testbed, "stall_detector", None)
    if detector is not None:
        watchdog["stall_violations"] = list(detector.violations)
    conservation = getattr(testbed, "conservation", None)
    if conservation is not None:
        watchdog["conservation"] = {
            "ok": conservation.ok,
            "balance": conservation.balance,
            "enqueued": conservation.enqueued,
            "delivered": conservation.delivered,
            "dropped": conservation.dropped,
            "resident": conservation.resident,
        }
    if watchdog:
        found["watchdog"] = watchdog

    telemetry = getattr(testbed, "telemetry", None)
    if telemetry is not None:
        if telemetry.streaming is not None:
            found["streaming"] = telemetry.streaming.snapshot()
        if telemetry.trace is not None:
            found["trace_tail"] = telemetry.trace.tail(RING_TAIL_RECORDS)
            found["trace_dropped"] = telemetry.trace.dropped
    return found
