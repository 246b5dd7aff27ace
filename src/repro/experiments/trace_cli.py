"""``repro trace {summarize,spans,waterfall,diff}`` — trace analysis.

Imported by :mod:`repro.experiments.cli` on dispatch only.
"""

from __future__ import annotations

import argparse
import json

from repro.analysis.attribution import (
    AttributionBuilder,
    attribute_file,
    diff_airtime_shares,
    diff_attributions,
    format_waterfall,
)
from repro.runner.progress import read_manifest
from repro.telemetry import (
    RunAccounts,
    configure_logging,
    format_summary,
    get_logger,
    iter_trace_file,
    summarize_file,
)

__all__ = ["main"]

log = get_logger("repro.cli")


def main(argv: list[str]) -> int:
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

