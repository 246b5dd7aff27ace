"""Live run progress: worker heartbeats, a status line, and run manifests.

A long sweep is opaque while it runs: the runner fans specs out
to worker processes and nothing surfaces until each run's final value
comes back, which for multi-minute simulations means minutes of silence.
This module adds the three observability surfaces around that gap:

* :class:`HeartbeatWriter` — installed inside each worker via the
  engine's process-wide progress hook
  (:func:`repro.sim.engine.set_default_progress`); periodically writes a
  small JSON heartbeat file (simulated time, events executed, events/sec,
  ETA, RSS) into a spool directory shared with the parent.  Writes are
  atomic (tmp + rename) so the parent never reads a torn file, and
  wall-clock throttled so a fast simulation does not spend its time in
  ``rename()``.
* :class:`ProgressAggregator` — the parent-side reader: a daemon thread
  that scans the spool and redraws one ``\\r``-terminated status line on
  stderr (``--progress``).  It is also how the flight recorder learns the
  last known state of a run that timed out or took its worker down.
* :class:`ManifestWriter` — a machine-readable JSONL run manifest
  (``--manifest-out``): one header record for the sweep, then one record
  per :class:`~repro.runner.spec.RunSpec` with its outcome and cost
  accounting, written in spec order so the file is deterministic up to
  wall-clock fields, and closed with a terminal ``end`` footer — its
  absence is how :func:`read_manifest` distinguishes a truncated
  manifest (crashed writer) from a complete one.

The spool directory travels to workers via the ``REPRO_PROGRESS_DIR``
environment variable — pool workers inherit the parent's environment,
and the in-process fallback path reads the same variable, so both
execution modes heartbeat identically.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "ETA_MAX_S",
    "Heartbeat",
    "HeartbeatWriter",
    "ManifestWriter",
    "PROGRESS_ENV",
    "ProgressAggregator",
    "read_heartbeats",
    "read_manifest",
    "rss_bytes",
]

#: Environment variable carrying the heartbeat spool directory to workers.
PROGRESS_ENV = "REPRO_PROGRESS_DIR"

#: Default engine progress-hook granularity (events between hook calls).
DEFAULT_INTERVAL_EVENTS = 200_000

#: Minimum wall seconds between heartbeat file writes.
DEFAULT_MIN_WRITE_S = 0.5

#: Upper clamp for ETA estimates (seconds).  A first noisy sim-rate
#: sample can put the projection in the millions of seconds; anything
#: above a week carries no information a human can act on.
ETA_MAX_S = 7 * 24 * 3600.0


def rss_bytes() -> int:
    """Current resident set size of this process, in bytes.

    Reads ``/proc/self/status`` (Linux); falls back to the peak RSS from
    ``resource.getrusage`` elsewhere, and 0 when neither is available.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        # ru_maxrss is KB on Linux, bytes on macOS; either way it is a
        # peak, which is the honest fallback label for "memory".
        scale = 1 if sys.platform == "darwin" else 1024
        return int(usage.ru_maxrss) * scale
    except Exception:
        return 0


def _spool_name(label: str) -> str:
    """Filesystem-safe heartbeat filename for one run label.

    Label-only (no pid): a retried run overwrites its predecessor's
    file, so the spool always shows each spec's *latest* state.
    """
    safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in label)
    return f"{safe or 'run'}.heartbeat.json"


@dataclass
class Heartbeat:
    """One progress sample from a running (or finished) simulation."""

    label: str
    pid: int
    #: Monotonic per-writer sample counter (asserting cadence in tests).
    beat: int
    phase: str  # "running" | "done" | "failed"
    t_sim_us: float
    #: Target simulated time of the current engine run (None = unknown).
    sim_until_us: Optional[float]
    events: int
    events_per_sec: float
    #: Wall seconds since the writer armed.
    wall_s: float
    #: Estimated wall seconds to finish the current engine run (None
    #: when the target or the sim rate is unknown).
    eta_s: Optional[float]
    rss_bytes: int

    @property
    def fraction(self) -> Optional[float]:
        """Completion fraction of the current engine run, if known."""
        if self.sim_until_us is None or self.sim_until_us <= 0:
            return None
        return min(1.0, self.t_sim_us / self.sim_until_us)

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Heartbeat":
        return cls(**json.loads(text))


class HeartbeatWriter:
    """Writes one run's heartbeat file from inside the event loop.

    Arm with :meth:`arm` before the simulation starts; the engine then
    calls :meth:`_hook` every ``interval_events`` events, and the writer
    emits at most one atomic file write per ``min_write_s`` of wall
    time.  :meth:`finish` writes the terminal heartbeat (phase ``done``
    or ``failed``) and disarms the engine hook.
    """

    def __init__(
        self,
        spool_dir: str,
        label: str,
        interval_events: int = DEFAULT_INTERVAL_EVENTS,
        min_write_s: float = DEFAULT_MIN_WRITE_S,
    ) -> None:
        self.spool = Path(spool_dir)
        self.label = label
        self.interval_events = interval_events
        self.min_write_s = min_write_s
        self.path = self.spool / _spool_name(label)
        self.beat = 0
        self._armed = False
        self._start_wall = 0.0
        self._last_write = 0.0
        self._events_base = 0
        self._last_t_sim = 0.0
        self._last_until: Optional[float] = None

    # ------------------------------------------------------------------
    def arm(self) -> "HeartbeatWriter":
        """Install the engine hook and write the initial heartbeat."""
        from repro.sim.engine import (
            events_processed_total,
            set_default_progress,
        )

        self.spool.mkdir(parents=True, exist_ok=True)
        self._start_wall = time.perf_counter()
        self._events_base = events_processed_total()
        self._armed = True
        set_default_progress(self._hook, self.interval_events)
        self._write(t_sim_us=0.0, sim_until_us=None, phase="running")
        return self

    def finish(self, failed: bool = False) -> None:
        """Write the terminal heartbeat and disarm the engine hook."""
        from repro.sim.engine import set_default_progress

        if not self._armed:
            return
        self._armed = False
        set_default_progress(None)
        self._write(t_sim_us=self._last_t_sim,
                    sim_until_us=self._last_until,
                    phase="failed" if failed else "done")

    # ------------------------------------------------------------------
    def _hook(self, sim: Any, executed: int) -> None:
        """Engine progress callback — must stay cheap."""
        self._last_t_sim = sim.now
        self._last_until = sim.run_until_us
        now = time.perf_counter()
        if now - self._last_write < self.min_write_s:
            return
        self._write(t_sim_us=sim.now, sim_until_us=sim.run_until_us,
                    phase="running")

    def _write(self, t_sim_us: float, sim_until_us: Optional[float],
               phase: str) -> None:
        from repro.sim.engine import events_processed_total

        now = time.perf_counter()
        wall = now - self._start_wall
        events = events_processed_total() - self._events_base
        rate = events / wall if wall > 0 else 0.0
        eta: Optional[float] = None
        # ETA guard: the very first sample (beat 1) has a sim rate
        # extrapolated from almost no wall time — its projection can be
        # wild in either direction — so ETA is only estimated from the
        # second sample on, only once events have actually executed,
        # and always clamped to [0, ETA_MAX_S].
        if (
            self.beat >= 1
            and events > 0
            and sim_until_us is not None
            and wall > 0
            and t_sim_us > 0
        ):
            sim_rate = t_sim_us / wall  # simulated µs per wall second
            if sim_rate > 0:
                eta = (sim_until_us - t_sim_us) / sim_rate
                eta = min(max(0.0, eta), ETA_MAX_S)
        self.beat += 1
        beat = Heartbeat(
            label=self.label,
            pid=os.getpid(),
            beat=self.beat,
            phase=phase,
            t_sim_us=t_sim_us,
            sim_until_us=sim_until_us,
            events=events,
            events_per_sec=rate,
            wall_s=wall,
            eta_s=eta,
            rss_bytes=rss_bytes(),
        )
        tmp = self.path.with_suffix(".tmp")
        try:
            tmp.write_text(beat.to_json() + "\n")
            os.replace(tmp, self.path)
        except OSError:
            # Progress is best-effort; never let it kill the run.
            return
        self._last_write = now


def read_heartbeats(spool_dir: str) -> List[Heartbeat]:
    """All parseable heartbeats in ``spool_dir``, sorted by label."""
    beats: List[Heartbeat] = []
    try:
        entries = sorted(os.listdir(spool_dir))
    except OSError:
        return beats
    for name in entries:
        if not name.endswith(".heartbeat.json"):
            continue
        try:
            text = (Path(spool_dir) / name).read_text()
            beats.append(Heartbeat.from_json(text))
        except (OSError, ValueError, TypeError):
            continue  # torn/stale file: skip, next scan will catch up
    beats.sort(key=lambda b: b.label)
    return beats


class ProgressAggregator:
    """Parent-side status line: scans the spool, redraws one stderr line."""

    def __init__(self, spool_dir: str, total_specs: int,
                 interval_s: float = 1.0, stream=None) -> None:
        self.spool = spool_dir
        self.total = total_specs
        self.interval_s = interval_s
        self.stream = stream if stream is not None else sys.stderr
        self.finished = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._drew = False

    # ------------------------------------------------------------------
    def start(self) -> "ProgressAggregator":
        self._thread = threading.Thread(
            target=self._loop, name="repro-progress", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._drew:
            # Leave the final state visible on its own line.
            self.stream.write("\n")
            self.stream.flush()

    def note_finished(self, count: int) -> None:
        """Completed specs the spool cannot see (cache hits)."""
        self.finished = count

    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._draw()
        self._draw()  # final state

    def _draw(self) -> None:
        line = self.render(read_heartbeats(self.spool))
        self.stream.write("\r" + line.ljust(100)[:160])
        self.stream.flush()
        self._drew = True

    def render(self, beats: List[Heartbeat]) -> str:
        """The status line for one spool snapshot (pure; tested)."""
        running = [b for b in beats if b.phase == "running"]
        done = self.finished + sum(
            1 for b in beats if b.phase in ("done", "failed")
        )
        rate = sum(b.events_per_sec for b in running)
        rss = sum(b.rss_bytes for b in running)
        parts = [f"[{done}/{self.total} done,"
                 f" {len(running)} running]"]
        if running:
            parts.append(f"{rate / 1e3:.0f}k ev/s")
            if rss:
                parts.append(f"{rss / 1e6:.0f} MB rss")
            # Only beats past their first sample carry a trustworthy
            # ETA (see HeartbeatWriter._write); until at least one
            # running worker has such a sample, show a placeholder
            # rather than a number extrapolated from nothing.
            etas = [
                b.eta_s for b in running
                if b.eta_s is not None and b.beat >= 2
            ]
            if etas:
                parts.append(f"eta {max(etas):.0f}s")
            else:
                parts.append("eta --")
            slowest = min(
                (b for b in running if b.fraction is not None),
                key=lambda b: b.fraction, default=None,
            )
            if slowest is not None:
                parts.append(
                    f"{slowest.label} {slowest.fraction:.0%} "
                    f"({slowest.t_sim_us / 1e6:.1f}s sim)"
                )
        return " ".join(parts)


class ManifestWriter:
    """Machine-readable JSONL manifest of one runner sweep.

    First line: a ``sweep`` header (spec count, execution mode).  Then
    one ``run`` record per spec, in spec order, each carrying the
    outcome (``ok``/``cached``/failure phase) and the run's cost
    accounting — the same numbers the ``--profile`` table prints,
    parseable by CI jobs and dashboards.  The final line is an ``end``
    footer with outcome counts: a manifest without one was cut short
    (crashed or killed writer) and its tail cannot be trusted to be
    complete — ``trace summarize`` warns on it.
    """

    def __init__(self, path: str) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = None
        self._runs = 0
        self._ok = 0
        self._interrupted = 0

    def open(self, specs: int, mode: str, jobs: int) -> "ManifestWriter":
        self._handle = open(self.path, "a")
        self._runs = 0
        self._ok = 0
        self._interrupted = 0
        self._record({
            "ev": "sweep", "specs": specs, "mode": mode, "jobs": jobs,
            "unix_time": time.time(),
        })
        return self

    def record_result(self, result: Any) -> None:
        """Append one :class:`~repro.runner.executor.RunResult`."""
        metrics = result.metrics
        record: Dict[str, Any] = {
            "ev": "run",
            "label": result.spec.label,
            "ok": result.ok,
            "cached": metrics.cached,
            "wall_s": round(metrics.wall_s, 6),
            "finalize_s": round(getattr(metrics, "finalize_s", 0.0), 6),
            "events": metrics.events,
            "events_per_sec": round(metrics.events_per_sec, 1),
            "peak_heap_bytes": metrics.peak_heap_bytes,
        }
        if result.error is not None:
            record["phase"] = result.error.phase
            record["error"] = result.error.error
            if result.error.phase == "interrupted":
                self._interrupted += 1
        self._runs += 1
        if result.ok:
            self._ok += 1
        self._record(record)

    def close(self) -> None:
        """Write the terminal footer and close the file.

        The footer is the completeness marker: replaying a manifest that
        lacks one means the writer died mid-sweep and run records may be
        missing from the tail.
        """
        if self._handle is not None:
            self._record({
                "ev": "end", "runs": self._runs, "ok": self._ok,
                "failed": self._runs - self._ok,
                "interrupted": self._interrupted,
                "unix_time": time.time(),
            })
            self._handle.close()
            self._handle = None

    def _record(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            raise RuntimeError("manifest not open")
        self._handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._handle.flush()


def read_manifest(path: str) -> Tuple[List[Dict[str, Any]], bool]:
    """Parse a JSONL manifest: ``(records, complete)``.

    ``complete`` is True when every ``sweep`` header is matched by an
    ``end`` footer — i.e. no writer died mid-sweep.  Unparseable lines
    (a torn tail) are dropped and count as incompleteness.
    """
    records: List[Dict[str, Any]] = []
    complete = True
    try:
        text = Path(path).read_text()
    except OSError:
        return records, False
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            complete = False  # torn tail
            break
        if isinstance(record, dict):
            records.append(record)
    sweeps = sum(1 for r in records if r.get("ev") == "sweep")
    ends = sum(1 for r in records if r.get("ev") == "end")
    if sweeps == 0 or ends < sweeps:
        complete = False
    return records, complete
