"""Command-line runner for the reproduction experiments.

Usage::

    python -m repro.experiments.cli list
    python -m repro.experiments.cli table1
    python -m repro.experiments.cli fig05 --duration 30 --warmup 10
    python -m repro.experiments.cli fig05 --trace traces/ --metrics-out traces/
    python -m repro.experiments.cli trace summarize traces/*.trace.jsonl
    python -m repro.experiments.cli validate check
    python -m repro.experiments.cli all

Each experiment prints the same rows/series the paper reports for the
corresponding table or figure.  Result tables go to stdout; progress and
status messages go to stderr through the ``repro`` logger (``-v`` for
debug, ``-q`` for warnings only), so piping stdout captures the data and
nothing else.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
import time
from typing import Optional

from repro.experiments import registry
from repro.faults import FaultSchedule
from repro.runner import FailedResult, ResultCache, Runner, RunResult, default_jobs
from repro.telemetry import (
    TRACE_CATEGORIES,
    TelemetryConfig,
    configure_logging,
    get_logger,
)

__all__ = ["main", "failure_table", "positive_float", "non_negative_float"]

log = get_logger("repro.cli")

#: Subcommand families: dispatched before the experiment parser (so
#: ``repro trace summarize ...`` never fights the positional experiment
#: argument) and imported only when asked for.
SUBCOMMANDS = ("trace", "validate", "campaign")


def positive_float(text: str) -> float:
    """argparse type: a finite float > 0 (``nan``/``inf``/0 are exit 2)."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def non_negative_float(text: str) -> float:
    """argparse type: a finite float >= 0."""
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _telemetry_from_args(args: argparse.Namespace) -> Optional[TelemetryConfig]:
    if (args.trace is None and args.metrics_out is None
            and not args.spans and not args.ledger and not args.streaming):
        return None
    categories: tuple = ()
    if args.trace_categories:
        categories = tuple(
            c.strip() for c in args.trace_categories.split(",") if c.strip()
        )
    return TelemetryConfig(
        # Spans are stitched from live taps, not from a file: without
        # --trace/--streaming to switch the hooks on, trace in memory.
        trace=args.spans and args.trace is None and not args.streaming,
        trace_path=args.trace,
        categories=categories,
        metrics_path=args.metrics_out,
        spans=args.spans,
        ledger=args.ledger,
        streaming=args.streaming,
    )


def failure_table(failures: list[FailedResult]) -> str:
    """Post-mortem table for runs that produced no value."""
    lines = ["Failed runs (no value; never cached — rerun retries them)"]
    lines.append(f"{'label':<28} {'phase':>8} {'attempts':>8}  error")
    for failure in failures:
        lines.append(
            f"{failure.spec.label:<28} {failure.phase:>8} "
            f"{failure.attempts:8d}  {failure.error}"
        )
    return "\n".join(lines)


def _run_cost_table(history: list[RunResult], mode: str = "") -> str:
    """Per-run cost table (wall time, events/sec, peak heap) for --profile.

    Wall time is split into simulation proper (``sim s``) and post-run
    finalisation (``post s``: the ``--trace`` file write and the metrics
    flush).  Summary tables and spans are built in-run from taps, so
    their cost is part of ``sim s`` and ``post s`` is ≈ 0 without a
    trace file.
    """
    lines = ["Run cost (per spec)"]
    if mode:
        lines.append(f"execution mode: {mode}")
    lines.append(f"{'label':<28} {'wall s':>8} {'sim s':>7} {'post s':>7} "
                 f"{'events':>12} {'ev/s':>10} {'peak heap':>10} "
                 f"{'cached':>6}")
    for result in history:
        m = result.metrics
        heap = f"{m.peak_heap_bytes / 1e6:.1f} MB" if m.peak_heap_bytes else "-"
        lines.append(
            f"{result.spec.label:<28} {m.wall_s:8.2f} {m.sim_wall_s:7.2f} "
            f"{m.finalize_s:7.2f} {m.events:12d} "
            f"{m.events_per_sec:10.0f} {heap:>10} "
            f"{'yes' if m.cached else 'no':>6}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        module = importlib.import_module(f"repro.experiments.{argv[0]}_cli")
        return module.main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment",
                        help="experiment id, 'all', 'list', 'trace', "
                             "'validate', or 'campaign'")
    parser.add_argument("--duration", type=positive_float, default=None,
                        help="measurement window in simulated seconds")
    parser.add_argument("--warmup", type=non_negative_float, default=None,
                        help="warm-up in simulated seconds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: $REPRO_JOBS or "
                             "the CPU count)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not write .repro-cache/")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more status output (repeat for debug)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="less status output (warnings only)")
    parser.add_argument("--trace", default=None, metavar="DIR",
                        help="write per-run JSONL event traces under DIR")
    parser.add_argument("--trace-categories", default=None, metavar="CSV",
                        help="comma-separated trace categories "
                             f"({','.join(TRACE_CATEGORIES)}); default all")
    parser.add_argument("--metrics-out", default=None, metavar="DIR",
                        help="write per-run metrics JSON (counters, "
                             "histograms, sampled time series) under DIR")
    parser.add_argument("--spans", action="store_true",
                        help="stitch per-packet lifecycle spans in-run and "
                             "fold the latency attribution into each run's "
                             "telemetry summary (no --trace file needed)")
    parser.add_argument("--ledger", action="store_true",
                        help="keep the per-station airtime ledger and audit "
                             "it against the analytical model at teardown "
                             "(with --strict, divergence aborts the run)")
    parser.add_argument("--streaming", action="store_true",
                        help="compute run statistics online (quantile "
                             "sketches, windowed Jain, drop funnel) with "
                             "flat memory: the trace ring stays bounded "
                             "and the post-run decode pass is skipped")
    parser.add_argument("--profile", action="store_true",
                        help="record per-run peak heap and print a "
                             "run-cost table (wall time split into sim "
                             "and post-run finalize)")
    parser.add_argument("--faults", default=None, metavar="FILE",
                        help="JSON fault schedule (burst loss, interference, "
                             "rate crashes, station churn) applied to "
                             "fault-aware experiments")
    parser.add_argument("--strict", action="store_true",
                        help="arm invariant watchdogs: conservation or "
                             "stall violations abort the run")
    parser.add_argument("--run-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="kill any single run exceeding this wall time "
                             "(parallel runs only); it is retried once, "
                             "then reported as failed")
    parser.add_argument("--progress", action="store_true",
                        help="live status line on stderr while runs execute "
                             "(sim-time, events/sec, ETA, RSS from worker "
                             "heartbeats)")
    parser.add_argument("--manifest-out", default=None, metavar="FILE",
                        help="append a machine-readable JSONL run manifest "
                             "(one record per run: outcome + cost "
                             "accounting) to FILE")
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="write failure flight-recorder bundles (trace "
                             "ring tail, watchdog state, streaming-stat "
                             "snapshot) under DIR when a run dies")
    args = parser.parse_args(argv)

    configure_logging(args.verbose - args.quiet)

    if args.experiment == "list":
        for row in registry.EXPERIMENTS:
            traced = " [traceable]" if row.accepts("telemetry") else ""
            print(f"  {row.id:8s} {row.description} (default "
                  f"{row.duration_s:g}s + {row.warmup_s:g}s warmup){traced}")
        return 0

    names = (list(registry.BY_ID) if args.experiment == "all"
             else [args.experiment])
    unknown = [n for n in names if n not in registry.BY_ID]
    if unknown:
        log.error("unknown experiment(s): %s", ", ".join(unknown))
        log.error("use 'list' to see available ids")
        return 2

    try:
        telemetry = _telemetry_from_args(args)
    except ValueError as exc:
        log.error("%s", exc)
        return 2

    schedule: Optional[FaultSchedule] = None
    if args.faults is not None:
        try:
            schedule = FaultSchedule.from_json(args.faults)
        except (OSError, ValueError) as exc:
            log.error("cannot load fault schedule %s: %s", args.faults, exc)
            return 2

    if args.flight_dir is not None:
        # Env-var transport (not TelemetryConfig): the flight directory
        # is pure observability output and must not perturb cache keys.
        os.environ["REPRO_FLIGHT_DIR"] = args.flight_dir

    jobs = args.jobs if args.jobs is not None else default_jobs()
    runner = Runner(jobs=jobs,
                    cache=None if args.no_cache else ResultCache(),
                    profile=args.profile,
                    timeout_s=args.run_timeout,
                    auto_serial=True,
                    progress=args.progress,
                    manifest_path=args.manifest_out,
                    graceful_signals=True)

    broken_tables = 0
    traced = False
    for name in names:
        row = registry.BY_ID[name]
        kwargs = {
            "duration_s": (args.duration if args.duration is not None
                           else row.duration_s),
            "warmup_s": (args.warmup if args.warmup is not None
                         else row.warmup_s),
            "seed": args.seed,
            "runner": runner,
        }
        if telemetry is not None:
            if row.accepts("telemetry"):
                kwargs["telemetry"] = telemetry
                traced = True
            else:
                log.warning("%s does not support --trace/--metrics-out yet; "
                            "running it untraced", name)
        if row.accepts("faults"):
            if schedule is not None:
                kwargs["faults"] = schedule
            if args.strict:
                kwargs["strict"] = True
        elif schedule is not None or args.strict:
            log.warning("%s does not support --faults/--strict; "
                        "running it unimpaired", name)
        start = time.time()
        log.info("=== %s: %s ===", name, row.description)
        try:
            print(row.module.format_table(row.module.run(**kwargs)))
        except Exception as exc:
            # Keep going: later experiments (and the failure table) still
            # render even if one table cannot cope with missing rows.
            log.error("%s failed: %s", name, exc)
            broken_tables += 1
        log.info("[%s: %.0fs wall]", name, time.time() - start)

    if traced and telemetry.trace_path is not None:
        log.info("traces written under %s/ "
                 "(inspect with: repro trace summarize FILE)",
                 telemetry.trace_path)
    if args.profile and runner.history:
        print()
        print(_run_cost_table(runner.history, mode=runner.execution_mode))
    failures = runner.failures
    if runner.interrupted:
        if failures:
            print()
            print(failure_table(failures))
        log.warning("interrupted; manifest and heartbeats were flushed "
                    "before exit")
        return 130
    if failures:
        print()
        print(failure_table(failures))
        log.warning("%d run(s) failed; tables above hold the surviving runs",
                    len(failures))
        # Partial success: data was produced, but not all of it.
        return 3
    return 1 if broken_tables else 0


if __name__ == "__main__":
    raise SystemExit(main())
