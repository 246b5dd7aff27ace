"""Telemetry configuration — the cache-relevant description of observability.

:class:`TelemetryConfig` is a frozen dataclass so it can ride inside a
:class:`~repro.runner.spec.RunSpec`'s kwargs: the runner canonicalises
dataclasses into the cache digest, which means *enabling telemetry (or
changing any telemetry knob) yields a different cache key* than the same
run without it.  A traced run can therefore never be satisfied from an
untraced run's cache entry, and vice versa.

The config is pure data; the live objects (trace bus, streaming
accounts, sampler) are built from it by :class:`repro.telemetry.Telemetry`.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

__all__ = ["TelemetryConfig", "TRACE_CATEGORIES", "STREAMING_CATEGORIES",
           "DEFAULT_STREAM_CAPACITY"]

#: Bounded-ring tail kept by streaming-only configs: enough context for
#: a failed run's evidence, small enough that memory stays flat.
DEFAULT_STREAM_CAPACITY = 8192

#: Categories emitted by streaming-only configs: what the online
#: accumulators consume (queue, tx) plus markers the failure evidence
#: and windowing need (meta, fault).
STREAMING_CATEGORIES = ("queue", "tx", "fault", "meta")

#: Every trace category the instrumentation emits.
#:
#: ``queue``   enqueue / dequeue / drop (qdisc and MAC layers) + flow-queue
#:             lifecycle (assignment, recycling)
#: ``codel``   CoDel state-machine transitions (enter/exit dropping state)
#: ``agg``     aggregate built / TX complete
#: ``sched``   airtime-scheduler deficit charges and (sparse) station entry
#: ``hw``      hardware-queue push/pop
#: ``driver``  legacy-driver pulls from the qdisc
#: ``tx``      one record per completed transmission on the medium
#: ``fault``   fault-injection events (burst windows, interference,
#:             rate crashes, station churn, watchdog verdicts)
#: ``meta``    markers (measurement-window start); never filtered out
TRACE_CATEGORIES = (
    "queue", "codel", "agg", "sched", "hw", "driver", "tx", "fault", "meta",
)

_LABEL_SANITISE = re.compile(r"[^A-Za-z0-9._-]+")


@dataclass(frozen=True)
class TelemetryConfig:
    """What to observe and where to write it.

    Parameters
    ----------
    trace:
        Enable the trace bus even without an output file (records are
        kept in memory; useful for tests and for in-process summaries).
    trace_path:
        JSONL output file for trace records.  Setting it implies
        ``trace``.  In :meth:`for_run` fan-outs this is a *directory*.
    categories:
        Trace categories to record; empty means all of
        :data:`TRACE_CATEGORIES`.
    metrics:
        Enable the periodic sampler's time series without an output
        file.  A metrics run is also a streaming run (see
        :attr:`streaming_enabled`): its sojourn quantiles and drop
        counts are the tap-fed sketches and drop funnel.
    metrics_path:
        JSON output file for the time series plus the streaming
        snapshot.  Setting it implies ``metrics``; a directory in
        fan-outs.
    spans:
        Stitch per-packet lifecycle spans in-run from the trace-bus taps
        and fold the latency-attribution summary into the run's
        telemetry summary.  Requires tracing (the hooks must be live);
        the ring itself is never read, so it may be bounded.
    ledger:
        Accumulate the per-station airtime ledger live (AP + medium
        observers) and audit it against the §2.2.1 analytical model at
        teardown.
    ledger_tolerance:
        Maximum absolute airtime-share divergence between the measured
        ledger and the analytical model before the audit fails.
    streaming:
        Compute per-run statistics *online* (quantile sketches, windowed
        Jain, drop counters, airtime shares — see
        :mod:`repro.telemetry.streaming`) by teeing the trace hooks into
        O(1)-memory accumulators.  Implies tracing hooks are live; when
        no full trace retention is otherwise requested (no
        ``trace_path``, ``trace`` False) the trace ring is
        bounded to :data:`DEFAULT_STREAM_CAPACITY` records so memory
        stays flat no matter how long the run — the retained tail feeds
        a failed run's evidence.
    trace_capacity:
        Explicitly bound the trace ring to the newest N records
        (evictions are counted and surfaced by ``trace summarize``).
        Only the retained file/tail shrinks: the summary tables and
        ``spans`` are tap-fed and still cover every record.
    """

    trace: bool = False
    trace_path: Optional[str] = None
    categories: Tuple[str, ...] = ()
    metrics: bool = False
    metrics_path: Optional[str] = None
    spans: bool = False
    ledger: bool = False
    ledger_tolerance: float = 0.05
    streaming: bool = False
    trace_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        unknown = [c for c in self.categories if c not in TRACE_CATEGORIES]
        if unknown:
            raise ValueError(
                f"unknown trace categories {unknown!r}; "
                f"valid: {', '.join(TRACE_CATEGORIES)}"
            )
        if self.spans and not self.trace_enabled:
            raise ValueError("spans requires tracing (set trace/trace_path)")
        if self.ledger_tolerance < 0:
            raise ValueError("ledger_tolerance must be non-negative")
        if self.trace_capacity is not None and self.trace_capacity <= 0:
            raise ValueError("trace_capacity must be positive")

    # ------------------------------------------------------------------
    @property
    def trace_enabled(self) -> bool:
        return (self.trace or self.trace_path is not None
                or self.streaming_enabled)

    @property
    def metrics_enabled(self) -> bool:
        return self.metrics or self.metrics_path is not None

    @property
    def streaming_enabled(self) -> bool:
        """Online accumulators run: ``streaming``, or a metrics run,
        whose sojourn and drop numbers are the streaming ones."""
        return self.streaming or self.metrics_enabled

    @property
    def active(self) -> bool:
        return self.trace_enabled or self.ledger

    @property
    def effective_categories(self) -> Tuple[str, ...]:
        """Trace categories actually emitted.

        Streaming-only configs (no file output, no spans, no in-memory
        retention request, no explicit category list) restrict emission
        to :data:`STREAMING_CATEGORIES` — the shapes the online
        accumulators consume plus the meta/fault markers — so the hot
        per-packet sites in the other categories (hw, driver, agg,
        sched, codel) stay on their zero-cost path.
        """
        if (self.streaming_enabled and not self.categories
                and not self.trace and self.trace_path is None
                and not self.spans):
            return STREAMING_CATEGORIES
        return self.categories

    @property
    def effective_capacity(self) -> Optional[int]:
        """Ring bound actually applied by :class:`repro.telemetry.Telemetry`.

        An explicit ``trace_capacity`` wins.  Otherwise streaming
        configs with no file output and no in-memory retention request
        default to a bounded tail — the whole point of the streaming
        path is that memory stays flat.  ``spans`` does not lift the
        bound: stitching consumes taps, never evicted records.
        """
        if self.trace_capacity is not None:
            return self.trace_capacity
        if (self.streaming_enabled and not self.trace
                and self.trace_path is None):
            return DEFAULT_STREAM_CAPACITY
        return None

    # ------------------------------------------------------------------
    def for_run(self, label: str) -> "TelemetryConfig":
        """Derive the per-run config for one spec of a fan-out.

        ``trace_path`` / ``metrics_path`` on the *base* config are treated
        as directories; the derived config points at
        ``<dir>/<label>.trace.jsonl`` and ``<dir>/<label>.metrics.json``
        (with the label sanitised for the filesystem), so every spec in a
        sweep writes its own files and the paths participate in each
        spec's cache digest.
        """
        safe = _LABEL_SANITISE.sub("_", label) or "run"
        return dataclasses.replace(
            self,
            trace_path=(
                str(Path(self.trace_path) / f"{safe}.trace.jsonl")
                if self.trace_path is not None else None
            ),
            metrics_path=(
                str(Path(self.metrics_path) / f"{safe}.metrics.json")
                if self.metrics_path is not None else None
            ),
        )
