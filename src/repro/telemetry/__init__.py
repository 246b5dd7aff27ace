"""Simulation telemetry: structured tracing, metrics, and profiling.

The paper's whole argument rests on *measured internals* — per-station
airtime, queue sojourn times, aggregation sizes, scheduler deficits — so
this package makes the simulator observable the way ns-3 trace sources
and the kernel's tracepoints do, without ad-hoc prints:

* :class:`~repro.telemetry.trace.TraceBus` — typed, timestamped event
  records with per-category filtering, written as JSONL;
* :class:`~repro.telemetry.metrics.MetricsRegistry` +
  :class:`~repro.telemetry.metrics.PeriodicSampler` — counters, gauges,
  histograms, and sampled time series (queue depth, hardware-queue
  occupancy, per-station deficits and airtime);
* :class:`~repro.telemetry.profiling.RunProfiler` — per-run wall time,
  events/sec, peak heap;
* :func:`~repro.telemetry.summarize.summarize_records` — trace file →
  per-station / per-queue tables (``repro trace summarize``).

Everything is **zero cost when disabled**: instrumentation sites hold
``None`` channels and reduce to one ``is not None`` test, and the whole
subsystem only comes to life when a
:class:`~repro.telemetry.config.TelemetryConfig` is attached to a run.
The config is a frozen dataclass that participates in the runner's cache
digest, so traced and untraced runs never share cache entries.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, Optional

from repro.telemetry.config import (
    DEFAULT_STREAM_CAPACITY,
    TRACE_CATEGORIES,
    TelemetryConfig,
)
from repro.telemetry.ledger import AirtimeLedger, LedgerAudit
from repro.telemetry.logutil import configure_logging, get_logger
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PeriodicSampler,
)
from repro.telemetry.profiling import (
    RunProfiler,
    add_finalize_wall,
    finalize_wall_total,
)
from repro.telemetry.streaming import (
    QuantileSketch,
    RunAccounts,
    StreamingStats,
    WindowedJain,
    format_streaming,
    jain_index,
)
from repro.telemetry.summarize import (
    TraceSummary,
    format_summary,
    summarize_file,
    summarize_records,
)
from repro.telemetry.ring import TraceRing
from repro.telemetry.trace import (
    RingTraceChannel,
    TraceBus,
    TraceChannel,
    iter_trace_file,
    load_trace,
)

__all__ = [
    "DEFAULT_STREAM_CAPACITY",
    "TRACE_CATEGORIES",
    "AirtimeLedger",
    "Counter",
    "Gauge",
    "Histogram",
    "LedgerAudit",
    "MetricsRegistry",
    "PeriodicSampler",
    "QuantileSketch",
    "RingTraceChannel",
    "RunAccounts",
    "RunProfiler",
    "StreamingStats",
    "Telemetry",
    "TelemetryConfig",
    "TraceBus",
    "TraceChannel",
    "TraceRing",
    "TraceSummary",
    "WindowedJain",
    "add_finalize_wall",
    "configure_logging",
    "finalize_wall_total",
    "format_streaming",
    "format_summary",
    "get_logger",
    "iter_trace_file",
    "jain_index",
    "load_trace",
    "summarize_file",
    "summarize_records",
]


class Telemetry:
    """The live telemetry context for one simulation run.

    Built from a :class:`TelemetryConfig`; owns the trace bus and the
    metrics registry (each ``None`` when its half is disabled) and knows
    how to flush both to disk and fold them into a summary dict that
    travels with the run's result (so cached runs replay the same
    telemetry summary a fresh run produces).
    """

    def __init__(self, config: TelemetryConfig) -> None:
        self.config = config
        #: Online accumulators (sketches, windowed Jain, drop counters).
        self.streaming: Optional[StreamingStats] = (
            StreamingStats() if config.streaming else None
        )
        self.trace: Optional[TraceBus] = (
            TraceBus(config.effective_categories,
                     capacity=config.effective_capacity)
            if config.trace_enabled else None
        )
        #: The tx/drop/marker accounts behind the summary tables (the
        #: streaming aggregator carries them when there is one).
        self.accounts: Optional[RunAccounts] = None
        #: In-run span stitching + latency attribution (``spans=True``).
        self.spans = None
        if self.trace is not None:
            # Taps go on the bus *before* any channel binds, so every
            # prebound emitter tees into them.
            self.accounts = (self.streaming if self.streaming is not None
                             else RunAccounts())
            self.accounts.register(self.trace)
            if config.spans:
                # Lazy import: analysis.attribution imports telemetry.spans,
                # keeping the package dependency one-way at module load.
                from repro.analysis.attribution import AttributionBuilder

                self.spans = AttributionBuilder()
                self.spans.register(self.trace)
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if config.metrics_enabled else None
        )
        self.ledger: Optional[AirtimeLedger] = (
            AirtimeLedger() if config.ledger else None
        )
        #: Set by the testbed teardown when the ledger audit has run.
        self.ledger_audit: Optional[LedgerAudit] = None

    # ------------------------------------------------------------------
    def channel(self, category: str):
        """Trace channel for ``category`` (``None`` if off/filtered)."""
        if self.trace is None:
            return None
        return self.trace.channel(category)

    def mark(self, t_us: float, event: str, **fields: Any) -> None:
        """Emit a ``meta`` marker (never category-filtered)."""
        channel = self.channel("meta")
        if channel is not None:
            channel.emit(t_us, event, **fields)

    # ------------------------------------------------------------------
    def finish(self) -> Dict[str, Any]:
        """Flush outputs to disk and return the run's telemetry summary.

        The summary is deterministic for a fixed seed and config — it is
        stored inside the run result, so a cache hit reproduces it
        bit-for-bit without re-simulating.

        Nothing here reads the trace ring: the airtime/drop tables come
        from the tap-fed accounts and the span attribution was stitched
        while the run emitted, so the only decode left is the streamed
        ``write_jsonl`` when ``trace_path`` asks for a file.  The
        ``post s`` column of the ``--profile`` run-cost table is what
        remains; the stitching cost sits in ``sim s``.

        The whole flush is charged to the profiler's *finalize* phase so
        run-cost accounting can split simulation time from post-run
        decode/summarize time.
        """
        start = time.perf_counter()
        try:
            return self._finish()
        finally:
            add_finalize_wall(time.perf_counter() - start)

    def _finish(self) -> Dict[str, Any]:
        summary: Dict[str, Any] = {}
        if self.trace is not None:
            summary["trace_records"] = len(self.trace)
            if self.trace.dropped:
                summary["trace_dropped"] = self.trace.dropped
            if self.streaming is not None:
                summary["streaming"] = self.streaming.snapshot()
            summary["airtime_us"] = self.accounts.airtime_table()
            summary["drops"] = self.accounts.drop_table()
            if self.config.trace_path is not None:
                summary["trace_path"] = str(
                    self.trace.write_jsonl(self.config.trace_path)
                )
            if self.spans is not None:
                summary["spans"] = self.spans.attribution().to_dict()
        if self.ledger is not None:
            summary["ledger"] = {
                "stations": self.ledger.to_dict(),
                "audit": (self.ledger_audit.to_dict()
                          if self.ledger_audit is not None else None),
            }
        if self.metrics is not None:
            summary["metrics"] = self.metrics.snapshot()
            if self.config.metrics_path is not None:
                summary["metrics_path"] = str(
                    self.metrics.write_json(self.config.metrics_path)
                )
        return summary
