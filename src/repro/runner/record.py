"""The run record: one JSON line per run, and the status line drawn from it.

Each :class:`~repro.runner.spec.RunSpec` a :class:`~repro.runner.Runner`
settles becomes one ``run`` record — the JSON form of its
:class:`~repro.runner.executor.RunResult` (:func:`run_record`): outcome,
cost accounting, the spec digest and seed that name its
:class:`~repro.runner.cache.ResultCache` entry, and on failure the
phase, error, attempts, traceback and the evidence the dying process
gathered (:func:`repro.telemetry.flightrec.evidence`).

Two sinks consume the records in spec order, each as soon as a run and
every run before it has settled:

* :class:`ManifestWriter` appends them to a JSONL file
  (``--manifest-out``) between a ``sweep`` header and an ``end`` footer
  — a file without a footer was cut short (crashed or killed writer),
  which :func:`read_manifest` reports;
* :class:`ProgressLine` redraws one stderr status line (``--progress``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.runner.spec import code_fingerprint

__all__ = ["ManifestWriter", "ProgressLine", "read_manifest", "run_record"]


def run_record(result: Any) -> Dict[str, Any]:
    """The ``run`` record of one :class:`~repro.runner.executor.RunResult`."""
    spec, metrics, error = result.spec, result.metrics, result.error
    record: Dict[str, Any] = {
        "ev": "run",
        "label": spec.label,
        "digest": spec.digest(),
        "seed": spec.kwargs_dict.get("seed"),
        "ok": result.ok,
        "cached": metrics.cached,
        "wall_s": round(metrics.wall_s, 6),
        "finalize_s": round(metrics.finalize_s, 6),
        "events": metrics.events,
        "events_per_sec": round(metrics.events_per_sec, 1),
        "peak_heap_bytes": metrics.peak_heap_bytes,
    }
    if error is not None:
        record.update(phase=error.phase, error=error.error,
                      attempts=error.attempts)
        if error.traceback:
            record["traceback"] = error.traceback
        if error.evidence is not None:
            record["evidence"] = error.evidence
    return record


class ManifestWriter:
    """Appends one sweep's run records to a JSONL file.

    First line: a ``sweep`` header (spec count, execution mode, the code
    fingerprint the cache keys cover).  Then
    one ``run`` record per spec, flushed as it is appended, so a killed
    sweep keeps the records of the runs that finished.  :meth:`close`
    writes the ``end`` footer with outcome counts — its absence is how
    :func:`read_manifest` (and ``trace summarize``) tell a truncated
    manifest from a complete one.
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
            "code": code_fingerprint(), "unix_time": time.time(),
        })
        return self

    def record_result(self, result: Any) -> None:
        """Append the record of one settled run."""
        self._runs += 1
        self._ok += result.ok
        if result.error is not None and result.error.phase == "interrupted":
            self._interrupted += 1
        self._record(run_record(result))

    def close(self, footer: bool = True) -> None:
        """Close the file, after the ``end`` footer unless the sweep was
        cut short (``footer=False``: the file then reads as truncated)."""
        if self._handle is None:
            return
        if footer:
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
        self._handle.write(
            json.dumps(record, separators=(",", ":"), default=str) + "\n")
        self._handle.flush()


class ProgressLine:
    """``--progress``: one ``\\r``-redrawn stderr line per settled run.

    ``[k/N done, f failed] <label> <wall>s`` — cache hits are counted
    in ``k`` from the first draw, so only executed runs redraw the line.
    A run that has not finished shows nothing: there is no in-flight
    sim-time, ETA or RSS.
    """

    def __init__(self, total: int, cached: int) -> None:
        self.total = total
        self.done = cached
        self.failed = 0
        self._draw("")

    def record_result(self, result: Any) -> None:
        if result.metrics.cached:
            return
        self.done += 1
        self.failed += not result.ok
        self._draw(f" {result.spec.label} {result.metrics.wall_s:.1f}s")

    def close(self, footer: bool = True) -> None:
        # Leave the final state visible on its own line.
        sys.stderr.write("\n")
        sys.stderr.flush()

    def _draw(self, last: str) -> None:
        line = f"[{self.done}/{self.total} done, {self.failed} failed]{last}"
        sys.stderr.write("\r" + line.ljust(80)[:160])
        sys.stderr.flush()


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
