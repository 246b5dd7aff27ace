"""Spawn reps, check them, reduce them to the named metrics.

The harness never imports the simulator: every rep is a fresh
``python -m benchmarks.perf.child`` subprocess, one at a time, and the
numbers come back as JSON.

Noise policy: rep 0 of a workload is a warm-up whose timings are
discarded (page cache, ``.pyc``); host-time metrics reduce the
remaining reps by p25 (``wall_s``, ``host_us_per_pkt`` — interference
only adds time) or median; rep ``i`` simulates replication
``i % REPLICATIONS`` and the simulated metrics are the mean over the
replications, so they repeat exactly for a given ``--seed``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from benchmarks.perf import spec
from benchmarks.perf.stats import all_finite, digest, reduce_reps

ROOT = Path(__file__).resolve().parents[2]

HOST_METRICS = ("setup_s", "wall_s", "host_us_per_pkt", "peak_rss_mb")
#: cProfile costs about 4x on these workloads; the timeout allows more.
PROFILE_SLOWDOWN = 8
#: Unprofiled reps beside the profiled one in a driver ``--trace 1`` run.
TRACE_REPS = 2
#: Measured reps (beyond the warm-up) a time-boxed run always makes.
MIN_MEASURED = 3


def require_simulator() -> None:
    """Exit non-zero, printing no result, when ``src/repro`` is missing."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmarks.perf: no simulator at {ROOT / 'src' / 'repro'}")


def _timeout_s(workload: spec.Workload, profile: bool) -> float:
    # 5x the calibrated run time, plus the same allowance for set-up.
    base = 5.0 * (workload.host_s + 1.0)
    return base * PROFILE_SLOWDOWN if profile else base


def run_child(name: str, seed: int, rep: int,
              profile: bool = False) -> Dict[str, Any]:
    """One rep in a fresh interpreter; never raises for a failed child."""
    workload = spec.WORKLOAD_BY_NAME[name]
    replication = rep % spec.REPLICATIONS
    record: Dict[str, Any] = {
        "workload": name, "rep": rep, "replication": replication,
        "profiled": profile, "error": None,
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [sys.executable, "-m", "benchmarks.perf.child", name,
               str(spec.sim_seed(seed, rep))]
    if profile:
        command.append("--profile")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=_timeout_s(workload, profile),
        )
    except subprocess.TimeoutExpired:
        record["error"] = "timeout"
    else:
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            record["error"] = f"exit {proc.returncode}: {tail[0]}"
        else:
            try:
                record.update(json.loads(proc.stdout.strip().splitlines()[-1]))
            except (IndexError, ValueError):
                record["error"] = "child printed no JSON result"
    record["cost_s"] = time.perf_counter() - started
    return record


def check_rep(record: Dict[str, Any],
              earlier: Iterable[Dict[str, Any]]) -> None:
    """Set ``record["error"]`` when the rep's outputs are not correct."""
    if record["error"] is not None:
        return
    if record["conservation_balance"] != 0:
        record["error"] = (
            f"conservation audit off by {record['conservation_balance']}")
    elif not all_finite(record):
        record["error"] = "NaN or inf in a reported metric"
    else:
        for other in earlier:
            if (other["error"] is None
                    and other["replication"] == record["replication"]
                    and other["sim_digest"] != record["sim_digest"]):
                record["error"] = (
                    f"sim_digest {record['sim_digest']} differs from rep "
                    f"{other['rep']}'s {other['sim_digest']}")
                break
    if record["error"] is None and record["profiled"]:
        # Normally about 1%; more means the profile missed part of the run.
        if abs(record["unattributed_share"]) > 0.05:
            record["error"] = (
                f"the profiler left {record['unattributed_share']:.1%} of "
                "the profiled wall outside every function")


def run_rep(name: str, seed: int, rep: int, reps: List[Dict[str, Any]],
            profile: bool = False) -> Dict[str, Any]:
    record = run_child(name, seed, rep, profile)
    check_rep(record, reps)
    reps.append(record)
    if record["error"] is not None:
        print(f"{name} rep {rep} FAILED: {record['error']}", file=sys.stderr)
    return record


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------
def summarise(reps: List[Dict[str, Any]],
              warmup: bool = True) -> Dict[str, Any]:
    """Reps of one workload -> its end-to-end metrics and counts."""
    unprofiled = [r for r in reps if not r["profiled"]]
    good = [r for r in unprofiled if r["error"] is None]
    timed = [r for r in good if r["rep"] > 0] if warmup else good
    failed = sum(r["error"] is not None for r in reps)
    out: Dict[str, Any] = {
        "attempted": len(reps),
        "failed": failed,
        "fail_share": failed / len(reps) if reps else 0.0,
        "metrics": {},
    }
    if not timed:
        return out
    by_replication: Dict[int, Dict[str, Any]] = {}
    for record in good:
        by_replication.setdefault(record["replication"], record)
    replications = [by_replication[k] for k in sorted(by_replication)]
    metrics = out["metrics"]
    for metric in spec.END_TO_END:
        source = timed if metric.name in HOST_METRICS else replications
        metrics[metric.name] = reduce_reps(
            [r[metric.name] for r in source], metric.estimator)
        metrics[metric.name]["unit"] = metric.unit
    out["packets"] = [r["packets"] for r in replications]
    out["latency_samples"] = [r["latency_samples"] for r in replications]
    out["sim_digests"] = [r["sim_digest"] for r in replications]
    out["sim_digest"] = digest(out["sim_digests"])
    # Exact per seed; the first replication stands for the run.
    first = replications[0]
    out["events_per_pkt"] = first["events"] / first["packets"]
    out["events_per_s"] = statistics.median(
        r["events"] / r["wall_s"] for r in timed)
    out["wall_per_sim_s"] = (
        metrics["wall_s"]["value"] / timed[0]["sim_seconds"])
    return out


def per_layer(name: str, summary: Dict[str, Any],
              profiled: Dict[str, Any],
              reference: Optional[Dict[str, Any]]) -> Dict[str, float]:
    """The ``--trace`` metrics: the profiled child's ledger plus the
    numbers that need the unprofiled reps beside it."""
    out = dict(profiled["per_layer"])
    out["sim.engine.events_per_pkt"] = summary["events_per_pkt"]
    out["sim.engine.events_per_s"] = summary["events_per_s"]
    out["bench.profile_overhead_pct"] = 100.0 * (
        profiled["wall_s"] / summary["metrics"]["wall_s"]["value"] - 1.0)
    for workload, metric in spec.TELEMETRY_OVERHEAD.items():
        out[metric] = 0.0
        if workload == name and reference is not None:
            out[metric] = 100.0 * (
                summary["wall_per_sim_s"] / reference["wall_per_sim_s"] - 1.0)
    return {m.name: out[m.name] for m in spec.per_layer_metrics()}


# ----------------------------------------------------------------------
# The driver's contract: one workload, time-boxed
# ----------------------------------------------------------------------
def measure_workload(name: str, seed: int, seconds: float,
                     trace: bool) -> Dict[str, Any]:
    """What ``run.py --workload`` prints as its last line."""
    reps: List[Dict[str, Any]] = []
    if not trace:
        started = time.perf_counter()
        # Every replication and MIN_MEASURED timed reps, then as many
        # more as still fit in the budget.
        needed = max(spec.REPLICATIONS, 1 + MIN_MEASURED)
        while True:
            record = run_rep(name, seed, len(reps), reps)
            elapsed = time.perf_counter() - started
            over = elapsed + record["cost_s"] > seconds
            broken = all(r["error"] is not None for r in reps)
            if len(reps) >= needed and (over or broken):
                break
        summary = summarise(reps)
        units = {m.name: m.unit for m in spec.END_TO_END}
        values = {k: v["value"] for k, v in summary["metrics"].items()}
    else:
        # One replication throughout, so the profiled run's digest can
        # be held against the unprofiled ones.
        for _ in range(TRACE_REPS):
            run_rep(name, seed, 0, reps)
        ref_reps: List[Dict[str, Any]] = []
        if name in spec.TELEMETRY_OVERHEAD:
            for _ in range(TRACE_REPS):
                run_rep(spec.TELEMETRY_REFERENCE, seed, 0, ref_reps)
        profiled = run_rep(name, seed, 0, reps, profile=True)
        summary = summarise(reps, warmup=False)
        summary["attempted"] += len(ref_reps)
        summary["failed"] += sum(r["error"] is not None for r in ref_reps)
        units = {m.name: m.unit for m in spec.per_layer_metrics()}
        values = {}
        if summary["failed"] == 0:
            reference = (
                summarise(ref_reps, warmup=False) if ref_reps else None)
            values = per_layer(name, summary, profiled, reference)
    if not values:
        sys.exit(f"{name}: no rep succeeded, nothing to report")
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in values.items()
        },
    }


# ----------------------------------------------------------------------
# The whole suite: every workload, reps interleaved round-robin
# ----------------------------------------------------------------------
def run_suite(seed: int, n_reps: int, trace: bool) -> Dict[str, Any]:
    """Warm-up plus ``n_reps`` measured reps of each workload.

    Reps go w1 w2 ... w7, w1 w2 ..., so a noisy minute on the shared box
    is spread over all workloads and does not land on one.
    """
    names = [w.name for w in spec.WORKLOADS]
    reps: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for rep in range(n_reps + 1):
        for name in names:
            record = run_rep(name, seed, rep, reps[name])
            print(f"  rep {rep} {name}: "
                  + (record["error"] or f"{record['wall_s']:.3f} s"),
                  file=sys.stderr)
    profiled: Dict[str, Dict[str, Any]] = {}
    if trace:
        for name in names:
            profiled[name] = run_rep(name, seed, 0, reps[name], profile=True)
            print(f"  profiled {name}: "
                  + (profiled[name]["error"]
                     or f"{profiled[name]['wall_s']:.3f} s"),
                  file=sys.stderr)
    results = {name: summarise(reps[name]) for name in names}
    reference = results.get(spec.TELEMETRY_REFERENCE)
    if reference is not None and not reference["metrics"]:
        reference = None
    for name in names:
        result = results[name]
        result["reps"] = reps[name]
        if name in profiled and profiled[name]["error"] is None \
                and result["metrics"]:
            result["per_layer"] = per_layer(
                name, result, profiled[name], reference)
    return results
