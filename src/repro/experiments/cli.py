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
import os
import sys
import time
from pathlib import Path
from typing import Callable, Optional

from repro.experiments import (
    airtime_udp,
    campus,
    fairness_index,
    fault_tolerance,
    latency,
    scaling,
    sparse,
    table1,
    tcp_throughput,
    voip,
    web,
)
from repro.faults import FaultSchedule
from repro.runner import FailedResult, ResultCache, Runner, RunResult, default_jobs
from repro.telemetry import (
    TRACE_CATEGORIES,
    RunAccounts,
    TelemetryConfig,
    configure_logging,
    format_summary,
    get_logger,
    iter_trace_file,
    summarize_file,
)

__all__ = ["main", "EXPERIMENTS", "TRACEABLE", "FAULTABLE"]

log = get_logger("repro.cli")


def _run_table1(duration: float, warmup: float, seed: int,
                runner: Optional[Runner] = None) -> str:
    return table1.format_table(table1.run(duration, warmup, seed,
                                          runner=runner))


def _run_fig04(duration: float, warmup: float, seed: int,
               runner: Optional[Runner] = None,
               telemetry: Optional[TelemetryConfig] = None) -> str:
    return latency.format_table(latency.run(duration_s=duration,
                                            warmup_s=warmup, seed=seed,
                                            runner=runner,
                                            telemetry=telemetry))


def _run_fig05(duration: float, warmup: float, seed: int,
               runner: Optional[Runner] = None,
               telemetry: Optional[TelemetryConfig] = None,
               faults: Optional[FaultSchedule] = None,
               strict: bool = False) -> str:
    return airtime_udp.format_table(
        airtime_udp.run(duration_s=duration, warmup_s=warmup, seed=seed,
                        runner=runner, telemetry=telemetry,
                        faults=faults, strict=strict)
    )


def _run_faults(duration: float, warmup: float, seed: int,
                runner: Optional[Runner] = None,
                telemetry: Optional[TelemetryConfig] = None,
                faults: Optional[FaultSchedule] = None,
                strict: bool = False) -> str:
    return fault_tolerance.format_table(
        fault_tolerance.run(duration_s=duration, warmup_s=warmup, seed=seed,
                            runner=runner, telemetry=telemetry,
                            faults=faults, strict=strict)
    )


def _run_fig06(duration: float, warmup: float, seed: int,
               runner: Optional[Runner] = None) -> str:
    return fairness_index.format_table(
        fairness_index.run(duration_s=duration, warmup_s=warmup, seed=seed,
                                runner=runner)
    )


def _run_fig07(duration: float, warmup: float, seed: int,
               runner: Optional[Runner] = None) -> str:
    return tcp_throughput.format_table(
        tcp_throughput.run(duration_s=duration, warmup_s=warmup, seed=seed,
                                runner=runner)
    )


def _run_fig08(duration: float, warmup: float, seed: int,
               runner: Optional[Runner] = None) -> str:
    return sparse.format_table(
        sparse.run(duration_s=duration, warmup_s=warmup, seed=seed,
                        runner=runner)
    )


def _run_fig09(duration: float, warmup: float, seed: int,
               runner: Optional[Runner] = None) -> str:
    return scaling.format_table(
        scaling.run(duration_s=duration, warmup_s=warmup, seed=seed,
                         runner=runner)
    )


def _run_table2(duration: float, warmup: float, seed: int,
               runner: Optional[Runner] = None) -> str:
    return voip.format_table(
        voip.run(duration_s=duration, warmup_s=warmup, seed=seed,
                      runner=runner)
    )


def _run_fig11(duration: float, warmup: float, seed: int,
               runner: Optional[Runner] = None) -> str:
    return web.format_table(
        web.run(duration_s=duration, warmup_s=warmup, seed=seed,
                     runner=runner)
    )


def _run_campus(duration: float, warmup: float, seed: int,
                runner: Optional[Runner] = None) -> str:
    return campus.format_table(
        campus.run(duration_s=duration, warmup_s=warmup, seed=seed,
                   runner=runner)
    )


ExperimentFn = Callable[..., str]

#: Experiment id -> (description, default duration, default warmup, runner).
EXPERIMENTS: dict[str, tuple[str, float, float, ExperimentFn]] = {
    "table1": ("analytical model vs measured UDP (Table 1)", 20, 5, _run_table1),
    "fig04": ("latency with TCP download (Figures 1/4)", 20, 8, _run_fig04),
    "fig05": ("airtime shares, one-way UDP (Figure 5)", 20, 5, _run_fig05),
    "fig06": ("Jain's fairness index (Figure 6)", 15, 6, _run_fig06),
    "fig07": ("TCP download throughput (Figure 7)", 20, 8, _run_fig07),
    "fig08": ("sparse-station optimisation (Figure 8)", 15, 5, _run_fig08),
    "fig09": ("30-station scaling (Figures 9/10)", 30, 10, _run_fig09),
    "table2": ("VoIP MOS and throughput (Table 2)", 12, 6, _run_table2),
    "fig11": ("web page-load times (Figure 11)", 40, 5, _run_fig11),
    "faults": ("fairness/latency under channel impairment and churn",
               10, 2, _run_faults),
    "campus": ("multi-BSS campus: co-channel contention + roaming",
               4, 1, _run_campus),
}

#: Experiments whose runner accepts a ``telemetry=`` kwarg.
TRACEABLE = {"fig04", "fig05", "faults"}

#: Experiments whose runner accepts ``faults=`` / ``strict=`` kwargs.
#: (``faults`` runs its built-in default schedule when none is given.)
FAULTABLE = {"fig05", "faults"}


# ----------------------------------------------------------------------
# `trace` subcommands
# ----------------------------------------------------------------------
def _trace_main(argv: list[str]) -> int:
    """``repro trace {summarize,spans,waterfall,diff}`` — trace analysis."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Inspect JSONL trace files written by --trace.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    summarize = sub.add_parser(
        "summarize", help="per-station / per-queue summary of trace files"
    )
    summarize.add_argument("files", nargs="+", metavar="FILE",
                           help="JSONL trace file(s) written by --trace")
    summarize.add_argument("--strict", action="store_true",
                           help="exit 4 if a bounded trace ring dropped "
                                "records (tables would cover only the "
                                "retained tail)")
    spans_p = sub.add_parser(
        "spans",
        help="reconstruct per-packet lifecycle spans and report join health",
    )
    spans_p.add_argument("files", nargs="+", metavar="FILE")
    spans_p.add_argument("--check", action="store_true",
                         help="exit non-zero if any record fails to join "
                              "into a span (unmatched > 0)")
    waterfall = sub.add_parser(
        "waterfall",
        help="latency-attribution waterfall (which layer added the delay)",
    )
    waterfall.add_argument("files", nargs="+", metavar="FILE")
    waterfall.add_argument("--plot", default=None, metavar="OUT",
                           help="also write the rendered waterfall to OUT")
    diff = sub.add_parser(
        "diff",
        help="regression-compare two traces (latency waterfall + airtime "
             "shares); exit 4 on a threshold breach",
    )
    diff.add_argument("old", metavar="OLD", help="baseline trace file")
    diff.add_argument("new", metavar="NEW", help="candidate trace file")
    diff.add_argument("--threshold-pct", type=float, default=25.0,
                      help="max per-station mean/P95 change per segment "
                           "(default 25%%)")
    diff.add_argument("--min-us", type=float, default=500.0,
                      help="noise floor: durations below this are clamped "
                           "before the relative change (default 500)")
    diff.add_argument("--share-threshold", type=float, default=0.05,
                      help="max absolute airtime-share change (default 0.05)")
    args = parser.parse_args(argv)

    configure_logging()
    if args.command == "summarize":
        return _trace_summarize(args.files, strict=args.strict)
    if args.command == "spans":
        return _trace_spans(args.files, check=args.check)
    if args.command == "waterfall":
        return _trace_waterfall(args.files, plot=args.plot)
    return _trace_diff(args.old, args.new,
                       threshold_pct=args.threshold_pct,
                       min_us=args.min_us,
                       share_threshold=args.share_threshold)


def _looks_like_manifest(path: str) -> bool:
    """True when the file's first line is a runner-manifest header."""
    import json

    try:
        with open(path) as handle:
            first = handle.readline()
        record = json.loads(first)
    except (OSError, ValueError):
        return False
    return isinstance(record, dict) and record.get("ev") == "sweep"


def _summarize_manifest(path: str) -> None:
    """Report a run manifest passed to ``trace summarize`` by mistake.

    Manifests are JSONL too, so they end up here often enough; rather
    than failing cryptically, report the sweep outcome — and warn when
    the terminal footer is missing, which means the writer died
    mid-sweep and the manifest is truncated.
    """
    from repro.runner.progress import read_manifest

    records, complete = read_manifest(path)
    runs = [r for r in records if r.get("ev") == "run"]
    ok = sum(1 for r in runs if r.get("ok"))
    print(f"# {path}")
    print(f"  run manifest (not a trace): {len(runs)} run record(s), "
          f"{ok} ok, {len(runs) - ok} failed")
    if not complete:
        log.warning(
            "%s: no terminal footer — the manifest was truncated "
            "(writer crashed or was killed mid-sweep); run records "
            "may be missing from the tail", path,
        )


def _trace_summarize(files: list[str], strict: bool = False) -> int:
    status = 0
    overflowed = False
    for path in files:
        if _looks_like_manifest(path):
            _summarize_manifest(path)
            continue
        try:
            summary = summarize_file(path)
        except (OSError, ValueError) as exc:
            log.error("cannot summarize %s: %s", path, exc)
            status = 1
            continue
        if summary.ring_dropped:
            overflowed = True
            log.warning("%s: bounded ring dropped %d records",
                        path, summary.ring_dropped)
        print(format_summary(summary, title=path))
    if strict and overflowed and status == 0:
        # Same exit-code contract as `trace diff`: 4 = gate breach.
        return 4
    return status


def _trace_spans(files: list[str], check: bool = False) -> int:
    """Reconstruct spans per file; ``--check`` gates on join health."""
    from repro.analysis.attribution import attribute_file

    status = 0
    for path in files:
        try:
            attribution = attribute_file(path)
        except (OSError, ValueError) as exc:
            log.error("cannot reconstruct spans from %s: %s", path, exc)
            status = 1
            continue
        scope = ("measurement window" if attribution.windowed
                 else "whole trace")
        print(f"# {path}")
        print(f"  {attribution.delivered} delivered, "
              f"{attribution.dropped} dropped, "
              f"{attribution.open_spans} still queued ({scope})")
        print(f"  unmatched joins: {attribution.unmatched}, "
              f"pre-enqueue drops: {attribution.pre_enqueue_drops}")
        if check and attribution.unmatched:
            log.error("%s: %d records failed to join into spans",
                      path, attribution.unmatched)
            status = 1
    return status


def _trace_waterfall(files: list[str], plot: str | None = None) -> int:
    from repro.analysis.attribution import attribute_file, format_waterfall

    status = 0
    rendered: list[str] = []
    for path in files:
        try:
            attribution = attribute_file(path)
        except (OSError, ValueError) as exc:
            log.error("cannot build waterfall from %s: %s", path, exc)
            status = 1
            continue
        rendered.append(format_waterfall(attribution, title=path))
    output = "\n\n".join(rendered)
    if output:
        print(output)
    if plot is not None and rendered:
        with open(plot, "w") as handle:
            handle.write(output + "\n")
        log.info("wrote waterfall to %s", plot)
    return status


def _trace_diff(old_path: str, new_path: str, threshold_pct: float,
                min_us: float, share_threshold: float) -> int:
    """Regression gate: exit 4 when the candidate trace drifted."""
    from repro.analysis.attribution import (
        AttributionBuilder,
        diff_airtime_shares,
        diff_attributions,
    )

    def read(path: str):
        """One pass: the file's latency attribution and airtime shares."""
        builder, accounts = AttributionBuilder(), RunAccounts()
        for record in iter_trace_file(path):
            builder.feed(record)
            accounts.feed(record)
        return builder.attribution(), accounts.airtime_shares()

    try:
        old_attr, old_shares = read(old_path)
        new_attr, new_shares = read(new_path)
    except (OSError, ValueError) as exc:
        log.error("cannot diff traces: %s", exc)
        return 1
    breaches = diff_attributions(old_attr, new_attr,
                                 threshold_pct=threshold_pct,
                                 min_us=min_us)
    breaches += diff_airtime_shares(old_shares, new_shares,
                                    threshold=share_threshold)
    if breaches:
        print(f"REGRESSION: {len(breaches)} threshold breach(es) "
              f"comparing {new_path} against {old_path}:")
        for breach in breaches:
            print(f"  {breach}")
        return 4
    print(f"ok: {new_path} matches {old_path} within thresholds "
          f"(±{threshold_pct:g}% latency, ±{share_threshold:g} share)")
    return 0


# ----------------------------------------------------------------------
# `validate` subcommands
# ----------------------------------------------------------------------
def _validate_main(argv: list[str]) -> int:
    """``repro validate {matrix,oracles,run,check,refresh}``.

    Exit codes: 0 clean, 2 usage error, 3 partial failure (some runs
    produced no value), 4 gate breach (matrix non-conformance, oracle
    failure, or golden drift).
    """
    parser = argparse.ArgumentParser(
        prog="repro validate",
        description="Cross-validate the simulator against the analytical "
                    "model, the metamorphic oracles, and the golden corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes (default: $REPRO_JOBS or "
                            "the CPU count)")
        p.add_argument("--no-cache", action="store_true",
                       help="ignore and do not write .repro-cache/")
        p.add_argument("-v", "--verbose", action="count", default=0)
        p.add_argument("-q", "--quiet", action="count", default=0)

    matrix_p = sub.add_parser(
        "matrix", help="scenario grid vs the analytical model"
    )
    matrix_p.add_argument("--smoke", action="store_true",
                          help="run the 6-cell smoke slice instead of the "
                               "full grid")
    matrix_p.add_argument("--report", default=None, metavar="FILE",
                          help="write the machine-readable conformance "
                               "report (JSON) to FILE")
    _common(matrix_p)

    oracles_p = sub.add_parser(
        "oracles", help="metamorphic and cross-scheme dominance oracles"
    )
    _common(oracles_p)

    run_p = sub.add_parser(
        "run", help="full battery: matrix + oracles + golden check"
    )
    run_p.add_argument("--full", action="store_true",
                       help="sweep the full matrix grid (default: the "
                            "smoke slice)")
    run_p.add_argument("--report", default=None, metavar="FILE",
                       help="write the matrix conformance report to FILE")
    run_p.add_argument("--golden", default=None, metavar="DIR",
                       help="golden snapshot directory "
                            "(default tests/golden/)")
    _common(run_p)

    check_p = sub.add_parser(
        "check", help="re-run the golden corpus and diff the snapshots"
    )
    check_p.add_argument("--golden", default=None, metavar="DIR",
                         help="golden snapshot directory "
                              "(default tests/golden/)")
    check_p.add_argument("--only", default=None, metavar="CSV",
                         help="comma-separated scenario names "
                              "(default: all)")
    _common(check_p)

    refresh_p = sub.add_parser(
        "refresh", help="re-run the golden corpus and overwrite snapshots"
    )
    refresh_p.add_argument("--golden", default=None, metavar="DIR")
    refresh_p.add_argument("--only", default=None, metavar="CSV")
    _common(refresh_p)

    args = parser.parse_args(argv)
    configure_logging(args.verbose - args.quiet)

    from pathlib import Path

    from repro.validation import golden as golden_mod
    from repro.validation import matrix as matrix_mod
    from repro.validation import oracles as oracles_mod

    jobs = args.jobs if args.jobs is not None else default_jobs()
    runner = Runner(jobs=jobs,
                    cache=None if args.no_cache else ResultCache(),
                    auto_serial=True)

    def _parse_only() -> Optional[list[str]]:
        only = getattr(args, "only", None)
        if only is None:
            return None
        return [n.strip() for n in only.split(",") if n.strip()]

    def _run_matrix(smoke: bool, report_path: Optional[str]) -> bool:
        cells = (matrix_mod.smoke_grid(seed=args.seed) if smoke
                 else matrix_mod.default_grid(seed=args.seed))
        report = matrix_mod.run_matrix(cells, runner=runner)
        print(report.format_table())
        if report_path:
            Path(report_path).write_text(report.to_json() + "\n")
            log.info("wrote conformance report to %s", report_path)
        return report.conforms()

    def _run_oracles() -> bool:
        verdicts = oracles_mod.standard_verdicts(seed=args.seed,
                                                 runner=runner)
        for verdict in verdicts:
            print(verdict)
        return all(v.ok for v in verdicts)

    def _golden_dir() -> Optional[Path]:
        path = getattr(args, "golden", None)
        return Path(path) if path else None

    breached = False
    try:
        if args.command == "matrix":
            breached = not _run_matrix(args.smoke, args.report)
        elif args.command == "oracles":
            breached = not _run_oracles()
        elif args.command == "run":
            matrix_ok = _run_matrix(not args.full, args.report)
            print()
            oracles_ok = _run_oracles()
            print()
            golden_report = golden_mod.check(runner=runner,
                                             golden_dir=_golden_dir())
            print(golden_report.format())
            breached = not (matrix_ok and oracles_ok and golden_report.clean)
        elif args.command == "check":
            golden_report = golden_mod.check(only=_parse_only(),
                                             runner=runner,
                                             golden_dir=_golden_dir())
            print(golden_report.format())
            breached = not golden_report.clean
        elif args.command == "refresh":
            names = golden_mod.refresh(only=_parse_only(), runner=runner,
                                       golden_dir=_golden_dir())
            target = _golden_dir() or golden_mod.default_golden_dir()
            print(f"refreshed {len(names)} golden snapshot(s) "
                  f"under {target}: {', '.join(names)}")
    except (ValueError, RuntimeError) as exc:
        log.error("%s", exc)
        return 2

    if runner.failures:
        print()
        print(_failure_table(runner.failures))
        return 3
    return 4 if breached else 0


# ----------------------------------------------------------------------
# `campaign` subcommands
# ----------------------------------------------------------------------
def _campaign_main(argv: list[str]) -> int:
    """``repro campaign {run,resume,status,report,compare,chaos}``.

    Exit codes: 0 clean, 2 usage error, 3 partial (some cells exhausted
    their retry budget), 4 gate breach (completion below the spec's
    ``min_complete`` floor, corrupted campaign state, or — for
    ``compare`` — a CI-distinct regression/drift between two runs), 130
    when interrupted (SIGINT/SIGTERM) — resume with ``campaign resume``.
    """
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="Checkpointed, resumable parameter-grid sweeps with "
                    "per-cell retry budgets and crash-safe state.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dir", required=True, metavar="DIR",
                       help="campaign state directory (journal, shards, "
                            "merged output)")
        p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes (default: $REPRO_JOBS or "
                            "the CPU count)")
        p.add_argument("--no-cache", action="store_true",
                       help="ignore and do not write .repro-cache/")
        p.add_argument("--run-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="kill any single cell exceeding this wall time "
                            "(counts against its retry budget)")
        p.add_argument("-v", "--verbose", action="count", default=0)
        p.add_argument("-q", "--quiet", action="count", default=0)

    run_p = sub.add_parser(
        "run", help="expand a campaign spec and execute it to completion"
    )
    run_p.add_argument("spec", metavar="SPEC",
                       help="campaign spec JSON file, 'demo' for the "
                            "built-in four-scheme demo sweep, or 'campus' "
                            "for the multi-BSS scheme sweep")
    run_p.add_argument("--replications", type=int, default=None, metavar="N",
                       help="override the spec's replication count "
                            "(the hard cap in precision mode)")
    run_p.add_argument("--precision", type=float, default=None, metavar="REL",
                       help="sequential stopping: stop replicating a grid "
                            "point once every targeted metric's relative "
                            "CI half-width is <= REL (e.g. 0.05)")
    run_p.add_argument("--precision-metric", action="append", default=None,
                       metavar="PATH",
                       help="metric path (or prefix) the precision target "
                            "applies to (repeatable; default: the spec's, "
                            "else all metrics)")
    run_p.add_argument("--confidence", type=float, default=None, metavar="C",
                       help="confidence level for all intervals "
                            "(default: the spec's, else 0.95)")
    run_p.add_argument("--min-reps", type=int, default=None, metavar="N",
                       help="replications required before the stopping "
                            "rule may retire a grid point (default: the "
                            "spec's, else 3)")
    _common(run_p)

    resume_p = sub.add_parser(
        "resume", help="continue an interrupted campaign from its journal"
    )
    resume_p.add_argument("--reset-failures", action="store_true",
                          help="forget exhausted retry budgets and try "
                               "failed cells again from scratch")
    _common(resume_p)

    status_p = sub.add_parser(
        "status", help="read-only per-cell status table for a campaign dir"
    )
    status_p.add_argument("--dir", required=True, metavar="DIR")
    status_p.add_argument("-v", "--verbose", action="count", default=0)
    status_p.add_argument("-q", "--quiet", action="count", default=0)

    report_p = sub.add_parser(
        "report", help="observatory dashboard: per-grid-point estimates "
                       "with confidence intervals, stopping status, and "
                       "replication trajectories"
    )
    report_p.add_argument("--dir", required=True, metavar="DIR",
                          help="campaign directory (or a merged.json file)")
    report_p.add_argument("--metric", action="append", default=None,
                          metavar="PATH",
                          help="metric path/prefix to show (repeatable; "
                               "default: precision targets, else top-level "
                               "scalars)")
    report_p.add_argument("--html", metavar="FILE", default=None,
                          help="also write a single-file HTML dashboard")
    report_p.add_argument("-v", "--verbose", action="count", default=0)
    report_p.add_argument("-q", "--quiet", action="count", default=0)

    compare_p = sub.add_parser(
        "compare", help="diff two campaign runs with CI-overlap-aware "
                        "verdicts; exit 4 on regression or drift"
    )
    compare_p.add_argument("base", metavar="BASE",
                           help="baseline campaign dir or merged.json")
    compare_p.add_argument("cand", metavar="CAND",
                           help="candidate campaign dir or merged.json")
    compare_p.add_argument("--metric", action="append", default=None,
                           metavar="PATH",
                           help="restrict the diff to these metric "
                                "paths/prefixes (repeatable)")
    compare_p.add_argument("-v", "--verbose", action="count", default=0)
    compare_p.add_argument("-q", "--quiet", action="count", default=0)

    chaos_p = sub.add_parser(
        "chaos", help="self-inject faults (worker kills, SIGKILL, shard "
                      "corruption, disk pressure) and assert recovery"
    )
    chaos_p.add_argument("--dir", required=True, metavar="DIR",
                         help="scratch directory for the chaos campaigns")
    chaos_p.add_argument("--mode", action="append", default=None,
                         metavar="MODE",
                         help="chaos mode to run (repeatable; default all)")
    chaos_p.add_argument("-v", "--verbose", action="count", default=0)
    chaos_p.add_argument("-q", "--quiet", action="count", default=0)

    args = parser.parse_args(argv)
    configure_logging(args.verbose - args.quiet)

    from repro.campaign import (
        CampaignEngine,
        CampaignSpec,
        SpecMismatch,
        campaign_status,
        format_status,
    )

    if args.command == "status":
        status = campaign_status(args.dir)
        for warning in status.warnings:
            log.warning("%s", warning)
        print(format_status(status.rows, title=f"Campaign {args.dir}"))
        return status.exit_code

    if args.command == "report":
        from repro.campaign.observatory import (
            load_campaign,
            render_html,
            render_report,
        )

        try:
            view = load_campaign(args.dir)
        except (OSError, ValueError) as exc:
            log.error("cannot load campaign %s: %s", args.dir, exc)
            return 2
        metrics = tuple(args.metric or ())
        print(render_report(view, metrics))
        if args.html:
            Path(args.html).parent.mkdir(parents=True, exist_ok=True)
            Path(args.html).write_text(render_html(view, metrics))
            print(f"html dashboard: {args.html}")
        return 0

    if args.command == "compare":
        from repro.campaign.observatory import (
            compare_merged,
            format_compare,
            load_campaign,
        )

        docs = []
        for name in (args.base, args.cand):
            try:
                docs.append(load_campaign(name).merged)
            except (OSError, ValueError) as exc:
                log.error("cannot load %s: %s", name, exc)
                return 2
        result = compare_merged(docs[0], docs[1],
                                metrics=tuple(args.metric or ()))
        for warning in result.warnings:
            log.warning("%s", warning)
        print(format_compare(result, args.base, args.cand))
        return result.exit_code

    if args.command == "chaos":
        from repro.campaign.chaos import ALL_MODES, run_chaos

        modes = tuple(args.mode) if args.mode else ALL_MODES
        unknown = [m for m in modes if m not in ALL_MODES]
        if unknown:
            log.error("unknown chaos mode(s): %s (choose from %s)",
                      ", ".join(unknown), ", ".join(ALL_MODES))
            return 2
        reports = run_chaos(args.dir, modes=modes)
        for report in reports:
            print(report.describe())
        bad = [r for r in reports if not r.ok and not r.skipped]
        if bad:
            log.error("%d chaos mode(s) failed recovery", len(bad))
            return 4
        return 0

    jobs = args.jobs if args.jobs is not None else default_jobs()
    engine_kwargs = dict(
        jobs=jobs,
        cache=None if args.no_cache else ResultCache(),
        timeout_s=args.run_timeout,
    )

    try:
        if args.command == "run":
            if args.spec == "demo":
                from repro.campaign.cells import demo_spec

                spec = demo_spec()
            elif args.spec == "campus":
                from repro.campaign.cells import campus_spec

                spec = campus_spec()
            else:
                try:
                    spec = CampaignSpec.from_json(args.spec)
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    log.error("cannot load campaign spec %s: %s",
                              args.spec, exc)
                    return 2
            overrides = {
                "replications": args.replications,
                "precision": args.precision,
                "precision_metrics": args.precision_metric,
                "confidence": args.confidence,
                "min_reps": args.min_reps,
            }
            overrides = {k: v for k, v in overrides.items()
                         if v is not None}
            if overrides:
                try:
                    spec = CampaignSpec.from_dict(
                        {**spec.to_dict(), **overrides}
                    )
                except ValueError as exc:
                    log.error("invalid precision override: %s", exc)
                    return 2
            engine = CampaignEngine(spec, args.dir, **engine_kwargs)
            outcome = engine.run(resume=True)
        else:  # resume
            try:
                engine = CampaignEngine.open(args.dir, **engine_kwargs)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                log.error("cannot open campaign dir %s: %s", args.dir, exc)
                return 2
            outcome = engine.run(resume=True,
                                 reset_failures=args.reset_failures)
    except SpecMismatch as exc:
        log.error("%s", exc)
        return 2
    except KeyboardInterrupt:
        log.warning("interrupted; resume with: "
                    "repro campaign resume --dir %s", args.dir)
        return 130

    print(format_status(outcome.rows, title=f"Campaign {outcome.spec.name}"))
    if outcome.interrupted:
        log.warning("interrupted after checkpointing; resume with: "
                    "repro campaign resume --dir %s", args.dir)
    elif outcome.merged_path is not None:
        print(f"merged output: {outcome.merged_path}")
    return outcome.exit_code


# ----------------------------------------------------------------------
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


def _failure_table(failures: list[FailedResult]) -> str:
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
    # `trace` is a subcommand family, dispatched before the experiment
    # parser so `repro trace summarize ...` never fights the positional
    # experiment argument.
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "validate":
        return _validate_main(argv[1:])
    if argv and argv[0] == "campaign":
        return _campaign_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment",
                        help="experiment id, 'all', 'list', 'trace', "
                             "'validate', or 'campaign'")
    parser.add_argument("--duration", type=float, default=None,
                        help="measurement window in simulated seconds")
    parser.add_argument("--warmup", type=float, default=None,
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
        for name, (desc, dur, warm, _) in EXPERIMENTS.items():
            traced = " [traceable]" if name in TRACEABLE else ""
            print(f"  {name:8s} {desc} "
                  f"(default {dur:g}s + {warm:g}s warmup){traced}")
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in EXPERIMENTS]
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
    for name in names:
        desc, default_dur, default_warm, experiment = EXPERIMENTS[name]
        duration = args.duration if args.duration is not None else default_dur
        warmup = args.warmup if args.warmup is not None else default_warm
        kwargs = {"runner": runner}
        if telemetry is not None:
            if name in TRACEABLE:
                kwargs["telemetry"] = telemetry
            else:
                log.warning("%s does not support --trace/--metrics-out yet; "
                            "running it untraced", name)
        if name in FAULTABLE:
            if schedule is not None:
                kwargs["faults"] = schedule
            if args.strict:
                kwargs["strict"] = True
        elif schedule is not None or args.strict:
            log.warning("%s does not support --faults/--strict; "
                        "running it unimpaired", name)
        start = time.time()
        log.info("=== %s: %s ===", name, desc)
        try:
            print(experiment(duration, warmup, args.seed, **kwargs))
        except Exception as exc:
            # Keep going: later experiments (and the failure table) still
            # render even if one table cannot cope with missing rows.
            log.error("%s failed: %s", name, exc)
            broken_tables += 1
        log.info("[%s: %.0fs wall]", name, time.time() - start)

    if telemetry is not None and telemetry.trace_path is not None:
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
            print(_failure_table(failures))
        log.warning("interrupted; manifest and heartbeats were flushed "
                    "before exit")
        return 130
    if failures:
        print()
        print(_failure_table(failures))
        log.warning("%d run(s) failed; tables above hold the surviving runs",
                    len(failures))
        # Partial success: data was produced, but not all of it.
        return 3
    return 1 if broken_tables else 0


if __name__ == "__main__":
    raise SystemExit(main())
