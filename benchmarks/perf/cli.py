"""``python -m benchmarks.perf run|compare`` — the whole suite at once.

``run`` makes a warm-up plus ``--reps`` measured reps of all seven
workloads, interleaved round-robin, prints every named metric with its
unit and checks that outputs are correct; ``--trace`` adds one profiled
run per workload and the per-layer ledger.  ``compare`` judges two
``-o`` files by the bounds.  (The driver's one-workload, time-boxed
entry point is ``run.py`` beside this file.)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.perf import compare as cmp
from benchmarks.perf import harness, spec

HERE = Path(__file__).resolve().parent
HISTORY = HERE / "history.jsonl"
DIGESTS = HERE / "digests.json"


def load_digests() -> Dict[str, Dict[str, str]]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def digest_changes(results: Dict[str, Any], seed: int) -> List[str]:
    """Workloads whose ``sim_digest`` differs from the recorded one."""
    expected = load_digests()
    changed = []
    for name, result in results.items():
        want = expected.get(name, {}).get(str(seed))
        got = result.get("sim_digest")
        if want is not None and got is not None and want != got:
            changed.append(name)
            print(f"sim_digest_changed: {name} seed {seed}: recorded {want}, "
                  f"got {got} -- the simulated statistics moved; this is a "
                  "different simulator, not a pure speed-up", file=sys.stderr)
    return changed


def _git_sha() -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=harness.ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def record(results: Dict[str, Any], seed: int, n_reps: int) -> None:
    """Append this invocation to the trajectory; refresh the digests."""
    line = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": _git_sha(),
        "seed": seed,
        "reps": n_reps,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workloads": {
            name: {
                **{m: v["value"] for m, v in result["metrics"].items()},
                "fail_share": result["fail_share"],
                "sim_digest": result.get("sim_digest"),
            }
            for name, result in results.items()
        },
    }
    with HISTORY.open("a") as out:
        out.write(json.dumps(line, sort_keys=True) + "\n")
    digests = load_digests()
    for name, result in results.items():
        if result.get("sim_digest") and result["failed"] == 0:
            digests.setdefault(name, {})[str(seed)] = result["sim_digest"]
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def format_results(results: Dict[str, Any]) -> str:
    lines: List[str] = []
    units = {m.name: m.unit for m in spec.per_layer_metrics()}
    for name, result in results.items():
        lines.append(
            f"{name}: attempted {result['attempted']}, failed "
            f"{result['failed']}, fail_share {result['fail_share']:.3g} ratio, "
            f"sim_digest {result.get('sim_digest', '-')}")
        for metric in spec.END_TO_END:
            m = result["metrics"].get(metric.name)
            if m is None:
                continue
            lines.append(
                f"  {metric.name:16} {m['value']:>12.6g} {metric.unit:7} "
                f"({metric.estimator}; median {m['median']:.6g}, IQR "
                f"{m['q1']:.6g}..{m['q3']:.6g}, n={m['n']})")
        if result["metrics"]:
            lines.append(
                f"  latency probe samples per replication: "
                f"{result['latency_samples']}; packets: {result['packets']}")
        for key, value in result.get("per_layer", {}).items():
            lines.append(f"    {key:44} {value:>14.6g} {units[key]}")
    return "\n".join(lines)


def cmd_run(args: argparse.Namespace) -> int:
    harness.require_simulator()
    results = harness.run_suite(args.seed, args.reps, args.trace)
    changed = digest_changes(results, args.seed)
    print(format_results(results))
    doc = {
        "meta": {"seed": args.seed, "reps": args.reps, "trace": args.trace,
                 "sim_digest_changed": changed},
        "workloads": results,
    }
    if args.output:
        Path(args.output).write_text(json.dumps(doc, indent=1) + "\n")
    if args.record:
        record(results, args.seed, args.reps)
    failed = sum(result["failed"] for result in results.values())
    return 1 if failed else 0


def cmd_compare(args: argparse.Namespace) -> int:
    doc_a = json.loads(Path(args.a).read_text())
    doc_b = json.loads(Path(args.b).read_text())
    rows = cmp.compare(doc_a, doc_b)
    print(cmp.format_rows(rows))
    return cmp.exit_code(rows)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run all seven workloads")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--reps", type=int, default=9,
                     help="measured reps per workload (default 9)")
    run.add_argument("--trace", action="store_true",
                     help="add one profiled run per workload")
    run.add_argument("-o", "--output", help="write the results as JSON")
    run.add_argument("--record", action="store_true",
                     help="append to history.jsonl, refresh digests.json")
    run.set_defaults(func=cmd_run)
    comp = sub.add_parser("compare", help="judge B against A by the bounds")
    comp.add_argument("a")
    comp.add_argument("b")
    comp.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    if args.command == "run" and args.reps + 1 < spec.REPLICATIONS:
        # The warm-up's simulation counts, so reps + 1 covers them all.
        parser.error(f"--reps must be at least {spec.REPLICATIONS - 1}: "
                     "every replication has to run")
    return args.func(args)
