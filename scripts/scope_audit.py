#!/usr/bin/env python3
"""Scope audit: which functions of ``src/repro`` does no user-facing flow enter?

Runs the flows a user of this repository actually starts — the report,
``validate``, the seven ``benchmarks/perf`` workloads, the examples,
every CLI experiment, the telemetry modes, the ``trace`` subcommands and
one cached ``--jobs 2`` pass — in this process under ``sys.setprofile``,
recording every ``call`` event as ``(file, name, firstlineno)``.  An
``ast`` walk over ``src/repro`` then sums the lines of the *outermost*
functions none of the flows entered and prints them per package and per
file.

    python scripts/scope_audit.py            # run the flows, print the tables
    python scripts/scope_audit.py --check    # also gate (CI): exit 1 on growth

A never-entered function is not dead code: error paths, crash
containment and the code behind ``--progress`` / ``--manifest-out`` /
``--flight-dir`` are entered by no flow below and stay on purpose.
``KEPT`` names those files with the reason; ``--check`` fails when a
file that was moved out of ``src`` reappears or when the never-entered
lines *outside* ``KEPT`` grow past ``BUDGET_OUTSIDE_KEPT``.

Pool workers are separate processes and are not profiled, so functions
that only run inside a worker read as never entered.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Set, Tuple
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: Files of ``src/repro`` whose never-entered functions stay on purpose,
#: with the reason (CHANGES.md carries the same list): the safety and
#: durability code behind live CLI flags, which no short healthy flow
#: can enter.  Every file above 100 never-entered lines must be here.
KEPT: Dict[str, str] = {
    "campaign/engine.py": "crash-safe sweep engine behind `campaign run|resume|status`: journal replay, retry budgets, SIGINT checkpointing",
    "campaign/journal.py": "write-ahead journal: checksummed append, torn-tail recovery",
    "campaign/shards.py": "checksummed shard checkpoints, quarantine of corrupt ones",
    "campaign/retry.py": "per-failure-class retry budgets and seeded backoff",
    "campaign/spec.py": "campaign spec validation (outside input) and the seed ladder",
    "campaign/reducer.py": "streaming shard reducer; ROADMAP item 1a consumes it",
    "campaign/stats.py": "interval estimators, their distribution functions, the stopping rule; ROADMAP item 1a consumes `mean_interval`",
    "campaign/cells.py": "cell functions of `campaign run demo|campus`",
    "experiments/campaign_cli.py": "`campaign run|resume|status` argument handling and exit codes",
    "runner/executor.py": "pool pass, timeouts, crash containment, canary probe, SIGTERM drain",
    "runner/cache.py": "result cache: corrupt-entry quarantine, atomic writes",
    "runner/atomicio.py": "fsync'd atomic writes and the fault hook the chaos harness drives",
    "runner/progress.py": "`--progress` heartbeats and the `--manifest-out` writer",
    "telemetry/flightrec.py": "`--flight-dir` failure bundles",
    "telemetry/streaming.py": "sketch merge and serialisation, entered by the campaign reducer",
}

#: Never-entered lines outside ``KEPT`` on the tree this was recorded on.
BUDGET_OUTSIDE_KEPT = 887

#: Moved under ``tests/`` or deleted by the scope PR; must not come back.
GONE = ("campaign/observatory.py", "campaign/chaos.py", "experiments/export.py")

_seen: Set = set()


def _hook(frame, event, arg) -> None:
    if event == "call":
        _seen.add(frame.f_code)


# ----------------------------------------------------------------------
# Flows (each runs in-process, stdout discarded)
# ----------------------------------------------------------------------
SHORT = ("--duration", "0.3", "--warmup", "0.1")


def _cli(*argv: str) -> None:
    from repro.experiments import cli

    code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"repro {' '.join(argv)} exited {code}")


def _report() -> None:
    from repro.experiments import report

    with tempfile.TemporaryDirectory() as tmp:
        code = report.main(["--duration-scale", "0.02", "--no-cache",
                            "--jobs", "1", "-q",
                            "-o", os.path.join(tmp, "report.md")])
    if code != 0:
        raise RuntimeError(f"report exited {code}")


def _validate() -> None:
    _cli("validate", "matrix", "--smoke", "--no-cache", "--jobs", "1", "-q")
    _cli("validate", "oracles", "--no-cache", "--jobs", "1", "-q")
    _cli("validate", "check", "--no-cache", "--jobs", "1", "-q")


def _perf_workloads() -> None:
    """Each benchmark workload as the traced child runs it, scaled down."""
    from benchmarks.perf import child, workloads
    from benchmarks.perf.spec import WORKLOADS

    for workload in WORKLOADS:
        built = workloads.build(workload.name, 1)
        child._Probes(built, 0.1)
        window_us = built.testbed.run(0.4, 0.1)
        built.testbed.finish_telemetry()
        workloads.simulated(built, window_us)
        workloads.conservation_balance(built)
        workloads.drops_by_layer_reason(built)
        workloads.model_share_error(built)
        for station in built.testbed.stations:
            workloads.mean_aggregation(built, station)


def _examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(path), run_name="__main__")


def _experiments() -> None:
    from repro.experiments.registry import EXPERIMENTS

    for row in EXPERIMENTS:
        _cli(row.id, "-q", *SHORT, "--no-cache", "--jobs", "1")


def _telemetry_and_trace() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        _cli("fig05", "-q", *SHORT, "--no-cache", "--jobs", "1",
             "--trace", tmp, "--metrics-out", tmp, "--spans", "--ledger")
        _cli("fig04", "-q", *SHORT, "--no-cache", "--jobs", "1",
             "--streaming", "--profile")
        traces = sorted(str(p) for p in Path(tmp).glob("*.trace.jsonl"))
        _cli("trace", "summarize", *traces)
        _cli("trace", "spans", *traces, "--check")
        _cli("trace", "waterfall", traces[0])
        _cli("trace", "diff", traces[0], traces[0])


def _cached_pool_pass() -> None:
    """``--jobs 2`` against an empty cache, then again against a full one."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"REPRO_CACHE_DIR": tmp}):
        for _ in range(2):
            _cli("fig05", "-q", *SHORT, "--jobs", "2")


FLOWS: List[Tuple[str, Callable[[], None]]] = [
    ("report --duration-scale 0.02", _report),
    ("validate matrix --smoke | oracles | check", _validate),
    ("benchmarks/perf workloads", _perf_workloads),
    ("examples/", _examples),
    ("the CLI experiments", _experiments),
    ("telemetry modes + trace subcommands", _telemetry_and_trace),
    ("cached --jobs 2 pass", _cached_pool_pass),
]


def run_flows() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    threading.setprofile(_hook)
    sys.setprofile(_hook)
    try:
        for name, flow in FLOWS:
            started = time.time()
            with contextlib.redirect_stdout(io.StringIO()):
                flow()
            print(f"[{time.time() - started:5.0f}s] {name}", file=sys.stderr)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


# ----------------------------------------------------------------------
# The ast side: outermost never-entered functions, per file
# ----------------------------------------------------------------------
def _first_line(node: ast.AST) -> int:
    """``co_firstlineno`` of a def: its first decorator's line."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _never_entered(node: ast.AST, name_of: str,
                   entered: Set[Tuple[str, str, int]]) -> Iterator[ast.AST]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if (name_of, child.name, _first_line(child)) not in entered:
                yield child
                continue
        yield from _never_entered(child, name_of, entered)


def audit() -> Dict[str, Tuple[int, int]]:
    """``{file relative to src/repro: (never-entered lines, total lines)}``."""
    entered = {
        (code.co_filename, code.co_name, code.co_firstlineno)
        for code in _seen if code.co_filename.startswith(str(SRC))
    }
    table: Dict[str, Tuple[int, int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        never = sum(
            node.end_lineno - _first_line(node) + 1
            for node in _never_entered(ast.parse(source), str(path), entered)
        )
        table[str(path.relative_to(SRC))] = (never, source.count("\n"))
    return table


def render(table: Dict[str, Tuple[int, int]]) -> str:
    packages: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for name, (never, total) in table.items():
        package = name.split("/")[0] if "/" in name else "(top level)"
        packages[package][0] += total
        packages[package][1] += never
    lines = ["| package | lines | in never-entered functions |", "|---|---|---|"]
    for package, (total, never) in sorted(packages.items(),
                                          key=lambda kv: -kv[1][1]):
        lines.append(f"| `{package}` | {total:,} | {never:,} |")
    lines += ["", "| file | never-entered / total | kept because |",
              "|---|---|---|"]
    for name, (never, total) in sorted(table.items(),
                                       key=lambda kv: -kv[1][0]):
        if never < 40:
            break
        lines.append(f"| `{name}` | {never:,} / {total:,} "
                     f"| {KEPT.get(name, '')} |")
    total = sum(total for _, total in table.values())
    never = sum(never for never, _ in table.values())
    lines += ["", f"src/repro: {total:,} lines, {never:,} inside functions "
                  f"no flow enters ({outside_kept(table):,} of them outside "
                  f"the kept-by-reason files)"]
    return "\n".join(lines)


def outside_kept(table: Dict[str, Tuple[int, int]]) -> int:
    return sum(never for name, (never, _) in table.items()
               if name not in KEPT)


def check(table: Dict[str, Tuple[int, int]]) -> List[str]:
    problems = [f"src/repro/{name} is back in src" for name in GONE
                if (SRC / name).exists()]
    problems += [
        f"src/repro/{name} has {never} never-entered lines and no reason "
        f"in KEPT" for name, (never, _) in table.items()
        if never > 100 and name not in KEPT
    ]
    outside = outside_kept(table)
    if outside > BUDGET_OUTSIDE_KEPT:
        problems.append(
            f"{outside} never-entered lines outside the kept-by-reason "
            f"files, {BUDGET_OUTSIDE_KEPT} recorded: enter the new code "
            f"from a flow, or give its file a reason in KEPT"
        )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if a removed file is back in src or the "
                             "never-entered lines outside KEPT grew")
    args = parser.parse_args()
    run_flows()
    table = audit()
    print(render(table))
    if args.check:
        problems = check(table)
        for problem in problems:
            print(f"scope_audit: {problem}", file=sys.stderr)
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
