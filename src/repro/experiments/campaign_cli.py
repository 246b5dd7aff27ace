"""``repro campaign {run,resume,status}`` — checkpointed parameter sweeps.

Exit codes: 0 clean, 2 usage error, 3 partial (some cells exhausted
their retry budget), 4 gate breach (completion below the spec's
``min_complete`` floor or corrupted campaign state), 130 when
interrupted (SIGINT/SIGTERM) — resume with ``campaign resume``.
Imported by :mod:`repro.experiments.cli` on dispatch only.
"""

from __future__ import annotations

import argparse

from repro.campaign import (
    CampaignEngine,
    CampaignSpec,
    SpecMismatch,
    campaign_status,
    format_status,
)
from repro.campaign.cells import campus_spec, demo_spec
from repro.runner import ResultCache, default_jobs
from repro.telemetry import configure_logging, get_logger

__all__ = ["main"]

log = get_logger("repro.cli")


def main(argv: list[str]) -> int:
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

    args = parser.parse_args(argv)
    configure_logging(args.verbose - args.quiet)

    if args.command == "status":
        status = campaign_status(args.dir)
        for warning in status.warnings:
            log.warning("%s", warning)
        print(format_status(status.rows, title=f"Campaign {args.dir}"))
        return status.exit_code

    jobs = args.jobs if args.jobs is not None else default_jobs()
    engine_kwargs = dict(
        jobs=jobs,
        cache=None if args.no_cache else ResultCache(),
        timeout_s=args.run_timeout,
    )

    try:
        if args.command == "run":
            if args.spec == "demo":
                spec = demo_spec()
            elif args.spec == "campus":
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

