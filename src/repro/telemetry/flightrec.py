"""Failure flight recorder: a triage bundle when a run dies.

A failed simulation is normally a one-line post-mortem — an exception
string inside a :class:`~repro.runner.executor.FailedResult` — with the
evidence gone: the in-memory trace ring died with the worker, the
watchdog state was never serialised, and the streaming accumulators
evaporated.  This module keeps that evidence.  When the environment
variable ``REPRO_FLIGHT_DIR`` names a directory (``--flight-dir`` on the
CLI), a run that raises :class:`~repro.faults.watchdog.InvariantViolation`,
:class:`~repro.sim.engine.SimulationError`, or any other exception dumps
a JSON *flight bundle* there before the exception propagates:

* the tail of the bounded trace ring (the last events before death),
* engine state (sim clock, events executed, pending events, heap size),
* watchdog state (stall-detector violations, the conservation balance),
* the streaming-statistics snapshot (sketches, drop funnel, Jain series),
* and the exception itself with its traceback.

Runs that die without a Python exception — a worker killed by the
runner's timeout, a segfault — cannot dump from inside; for those the
parent reconstructs a smaller bundle from the run's last heartbeat
(:func:`dump_parent_bundle`).

The transport is deliberately an environment variable rather than a
:class:`~repro.telemetry.config.TelemetryConfig` field: the flight
directory is pure observability output, and it must never perturb the
runner's cache digests.

Registration uses a module-global weak reference: every testbed
(:class:`~repro.topology.campus.CampusTestbed`) registers itself at
construction and the executor asks "whoever is active" at exception
time — no plumbing through the experiment functions, and a dead
testbed never keeps its simulator alive.
"""

from __future__ import annotations

import json
import os
import time
import traceback as tb_module
import weakref
from pathlib import Path
from typing import Any, Dict, Optional

__all__ = [
    "FLIGHT_ENV",
    "RING_TAIL_RECORDS",
    "dump_active",
    "dump_parent_bundle",
    "flight_dir",
    "register",
    "selftest",
]

#: Environment variable naming the flight-bundle output directory.
FLIGHT_ENV = "REPRO_FLIGHT_DIR"

#: How many of the newest trace records a bundle retains.
RING_TAIL_RECORDS = 512

#: Weak reference to the most recently constructed testbed (None when
#: nothing is registered or the testbed has been collected).
_active: Optional["weakref.ReferenceType"] = None


def flight_dir() -> Optional[str]:
    """The configured flight directory, or ``None`` when disabled."""
    value = os.environ.get(FLIGHT_ENV, "").strip()
    return value or None


def register(testbed: Any) -> None:
    """Mark ``testbed`` as the active simulation for crash dumps.

    Weak: registration never extends the testbed's lifetime, and a
    subsequent registration simply replaces the previous one (runs are
    sequential within a process).
    """
    global _active
    _active = weakref.ref(testbed)


def _sanitise(label: str) -> str:
    return "".join(
        c if c.isalnum() or c in "._-" else "_" for c in label
    ) or "run"


def _bundle_path(directory: str, label: str) -> Path:
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    return target / f"{_sanitise(label)}.{os.getpid()}.flight.json"


def _exception_section(exc: BaseException) -> Dict[str, Any]:
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(
            tb_module.format_exception(type(exc), exc, exc.__traceback__)
        ),
    }


def dump_active(
    reason: str,
    exc: Optional[BaseException] = None,
    label: str = "",
) -> Optional[Path]:
    """Dump a flight bundle for the registered testbed, if any.

    Returns the bundle path, or ``None`` when no flight directory is
    configured or no testbed is registered.  Never raises: a failing
    dump must not mask the original failure.
    """
    directory = flight_dir()
    if directory is None:
        return None
    testbed = _active() if _active is not None else None
    if testbed is None:
        return None
    try:
        bundle = _build_bundle(testbed, reason, exc)
        path = _bundle_path(directory, label or reason)
        path.write_text(json.dumps(bundle, indent=1, default=str) + "\n")
        return path
    except Exception:
        return None


def _build_bundle(
    testbed: Any, reason: str, exc: Optional[BaseException]
) -> Dict[str, Any]:
    sim = testbed.sim
    options = testbed.options
    bundle: Dict[str, Any] = {
        "format": "repro-flight/1",
        "reason": reason,
        "unix_time": time.time(),
        "pid": os.getpid(),
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
    if exc is not None:
        bundle["exception"] = _exception_section(exc)

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
        bundle["watchdog"] = watchdog

    telemetry = getattr(testbed, "telemetry", None)
    if telemetry is not None:
        if telemetry.streaming is not None:
            bundle["streaming"] = telemetry.streaming.snapshot()
        if telemetry.trace is not None:
            bundle["trace_tail"] = telemetry.trace.tail(RING_TAIL_RECORDS)
            bundle["trace_dropped"] = telemetry.trace.dropped
    return bundle


def dump_parent_bundle(
    label: str,
    phase: str,
    error: str,
    heartbeat: Optional[Dict[str, Any]] = None,
    directory: Optional[str] = None,
) -> Optional[Path]:
    """Parent-side bundle for a run that could not dump its own.

    Used for timeouts and worker crashes: the worker is gone, so the
    bundle carries what the parent knows — the failure post-mortem and
    the run's last heartbeat (sim-time reached, events executed, RSS).
    """
    directory = directory if directory is not None else flight_dir()
    if directory is None:
        return None
    try:
        bundle: Dict[str, Any] = {
            "format": "repro-flight/1",
            "reason": phase,
            "unix_time": time.time(),
            "pid": os.getpid(),
            "label": label,
            "error": error,
            "origin": "parent",
        }
        if heartbeat is not None:
            bundle["last_heartbeat"] = heartbeat
        path = _bundle_path(directory, label or phase)
        path.write_text(json.dumps(bundle, indent=1, default=str) + "\n")
        return path
    except Exception:
        return None


# ----------------------------------------------------------------------
# Self-test: induce a violation, assert a bundle lands
# ----------------------------------------------------------------------
def selftest(directory: str) -> Path:
    """Induce an invariant violation and return the bundle it dumped.

    Runs a tiny strict testbed whose engine stall guard is set absurdly
    low, so the event loop raises
    :class:`~repro.sim.engine.SimulationError` almost immediately; the
    executor-side dump hook then writes a flight bundle.  Used by CI to
    prove the crash path end-to-end.  Raises ``RuntimeError`` if no
    bundle appears.
    """
    from repro.experiments.config import three_station_rates
    from repro.experiments.testbed import Testbed, TestbedOptions
    from repro.experiments.workloads import saturating_udp_download
    from repro.telemetry.config import TelemetryConfig

    previous = os.environ.get(FLIGHT_ENV)
    os.environ[FLIGHT_ENV] = directory
    try:
        testbed = Testbed(
            three_station_rates(),
            TestbedOptions(
                telemetry=TelemetryConfig(streaming=True), strict=True
            ),
        )
        saturating_udp_download(testbed)
        # Plant a zero-delay livelock mid-run: a callback that reschedules
        # itself without advancing the clock, exactly the failure mode the
        # stall guard exists for.  A tight guard trips within µs of it.
        def livelock() -> None:
            testbed.sim.schedule_call(0.0, livelock)

        testbed.sim.schedule_call(50_000.0, livelock)
        testbed.sim.set_stall_guard(100)
        try:
            testbed.run(duration_s=0.2)
        except Exception as exc:
            path = dump_active("selftest", exc, label="selftest")
            if path is None:
                raise RuntimeError(
                    "flight-recorder selftest produced no bundle"
                ) from exc
            return path
        raise RuntimeError(
            "flight-recorder selftest did not trip the stall guard"
        )
    finally:
        if previous is None:
            os.environ.pop(FLIGHT_ENV, None)
        else:
            os.environ[FLIGHT_ENV] = previous
