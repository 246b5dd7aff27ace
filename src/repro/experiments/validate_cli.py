"""``repro validate {matrix,oracles,run,check,refresh}``.

Exit codes: 0 clean, 2 usage error, 3 partial failure (some runs
produced no value), 4 gate breach (matrix non-conformance, oracle
failure, or golden drift).  Imported by :mod:`repro.experiments.cli` on
dispatch only.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Optional

from repro.experiments.cli import failure_table
from repro.runner import ResultCache, Runner, default_jobs
from repro.telemetry import configure_logging, get_logger
from repro.validation import golden as golden_mod
from repro.validation import matrix as matrix_mod
from repro.validation import oracles as oracles_mod

__all__ = ["main"]

log = get_logger("repro.cli")


def main(argv: list[str]) -> int:
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
        print(failure_table(runner.failures))
        return 3
    return 4 if breached else 0

