"""Component microbenchmarks and report wall time.

Measures what ``benchmarks/perf`` has no workload for —

* the **event-loop hot path** (pure dispatch, and dispatch under heavy
  timer cancellation, the TCP/CoDel pattern that motivated lazy heap
  compaction),
* **trace emission**, **batched arrival generation** and **campaign
  reduction** in isolation, and
* the **report fan-out**: wall time of the scaled-down report serial
  (``jobs=1``) vs parallel (``jobs=N``), caching disabled for both.

What a whole simulation costs -- per delivered packet, per layer, with
and without telemetry -- is ``benchmarks/perf``'s job (``udp3_fifo``,
``udp3_airtime_spans``, ``udp3_airtime_stream``); events/sec of a run is
not reported here, because a change that needs fewer events per packet
makes a faster run read slower.

Results are written to ``BENCH_speed.json`` at the repository root so
successive PRs can track the perf trajectory.  Run directly::

    PYTHONPATH=src python benchmarks/bench_speed.py [--scale 0.05] [--jobs N]

This file intentionally defines no pytest cases: it is a measurement
driver, not a correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro import __version__
from repro.experiments.report import generate_report
from repro.runner import Runner, default_jobs
from repro.sim.engine import Simulator

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_speed.json"


# ----------------------------------------------------------------------
# Event-loop microbenchmarks
# ----------------------------------------------------------------------
def bench_dispatch(n_events: int = 300_000) -> float:
    """Pure dispatch: a self-rescheduling chain of ``n_events`` callbacks."""
    sim = Simulator()
    remaining = [n_events]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    start = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - start
    return n_events / wall


def bench_cancel_heavy(n_rounds: int = 60_000) -> float:
    """Dispatch under churn: every round schedules a far-future timer and
    cancels the previous one — the retransmit-timer pattern that fills the
    heap with dead entries and exercises lazy compaction."""
    sim = Simulator()
    remaining = [n_rounds]
    pending_timer = [None]

    def tick() -> None:
        if pending_timer[0] is not None:
            pending_timer[0].cancel()
        pending_timer[0] = sim.schedule(1_000_000.0, lambda: None)
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    start = time.perf_counter()
    sim.run(until_us=float(n_rounds) + 10.0)
    wall = time.perf_counter() - start
    return n_rounds / wall


def bench_trace_ring(n_events: int = 200_000) -> dict:
    """Trace emission: the columnar ring backend (prebound positional
    emitter) vs the legacy dict backend, plus the ring's lazy decode —
    the cost a consumer pays once when it first asks for records."""
    from repro.telemetry.trace import TraceBus

    fields = (("station", "q"), ("pid", "q"), ("sojourn_us", "d"))

    def emit_all(bus) -> float:
        emit = bus.channel("queue").emitter("dequeue", fields)
        start = time.perf_counter()
        for i in range(n_events):
            emit(float(i), i & 31, i, 12.5)
        return time.perf_counter() - start

    ring = TraceBus(backend="ring")
    ring_wall = emit_all(ring)
    start = time.perf_counter()
    decoded = ring.records
    decode_wall = time.perf_counter() - start
    dict_wall = emit_all(TraceBus(backend="dict"))
    if len(decoded) != n_events:
        raise RuntimeError("ring decode lost records")
    return {
        "n_events": n_events,
        "ring_emit_events_per_sec": round(n_events / ring_wall),
        "dict_emit_events_per_sec": round(n_events / dict_wall),
        "ring_decode_events_per_sec": round(n_events / decode_wall),
        "emit_speedup": round(dict_wall / ring_wall, 2),
    }


def bench_batch_arrivals(n_arrivals: int = 200_000) -> dict:
    """Arrival generation: a BatchSource replaying precomputed CBR
    chunks vs one PeriodicTimer re-arm per packet."""
    from repro.sim.batch import BatchSource
    from repro.sim.engine import PeriodicTimer
    from repro.traffic.arrivals import cbr_chunks

    interval = 10.0
    horizon = n_arrivals * interval + 0.5

    def run_batch() -> float:
        sim = Simulator()
        fired = [0]

        def on_arrival(stamp_us: float) -> None:
            fired[0] += 1

        source = BatchSource(
            sim, cbr_chunks(interval, interval), on_arrival
        ).start()
        start = time.perf_counter()
        sim.run(until_us=horizon)
        wall = time.perf_counter() - start
        source.stop()
        if fired[0] != n_arrivals:
            raise RuntimeError(f"batch fired {fired[0]} != {n_arrivals}")
        return wall

    def run_timer() -> float:
        sim = Simulator()
        fired = [0]

        def on_arrival() -> None:
            fired[0] += 1

        timer = PeriodicTimer(sim, interval, on_arrival).start()
        start = time.perf_counter()
        sim.run(until_us=horizon)
        wall = time.perf_counter() - start
        timer.stop()
        if fired[0] != n_arrivals:
            raise RuntimeError(f"timer fired {fired[0]} != {n_arrivals}")
        return wall

    batch_wall = run_batch()
    timer_wall = run_timer()
    return {
        "n_arrivals": n_arrivals,
        "batch_arrivals_per_sec": round(n_arrivals / batch_wall),
        "periodic_timer_arrivals_per_sec": round(n_arrivals / timer_wall),
        "speedup": round(timer_wall / batch_wall, 2),
    }


# ----------------------------------------------------------------------
# Campaign reduction and report fan-out
# ----------------------------------------------------------------------
def bench_campaign_reduce(n_cells: int = 4000, n_groups: int = 40) -> dict:
    """Campaign reduction throughput: synthetic shard payloads folded
    through the streaming reducer, finalised with the full CI section
    (t-intervals plus P50/P95/P99 rank intervals per metric) — the cost
    ``merged.json`` pays per committed cell, with and without CIs."""
    import random as _random

    from repro.campaign.reducer import CampaignReducer

    rng = _random.Random(7)
    payloads = []
    for i in range(n_cells):
        group = i % n_groups
        payloads.append({
            "key": {"scheme": f"s{group % 5}", "stations": group // 5},
            "value": {
                "total_mbps": 20.0 + rng.gauss(0.0, 1.0),
                "jain_airtime": min(1.0, 0.9 + rng.random() / 10.0),
                "latency": {"p50_us": 4000.0 + rng.gauss(0.0, 300.0),
                            "p99_us": 20000.0 + rng.gauss(0.0, 2000.0)},
                "per_station_mbps": [rng.random() * 8.0 for _ in range(3)],
            },
        })

    def reduce_all(confidence: float) -> float:
        start = time.perf_counter()
        reducer = CampaignReducer(confidence=confidence)
        for payload in payloads:
            reducer.fold(payload)
        doc = reducer.to_dict()
        wall = time.perf_counter() - start
        if len(doc) != n_groups:
            raise RuntimeError(f"reduced {len(doc)} != {n_groups} groups")
        if confidence and "ci" not in next(iter(doc.values())):
            raise RuntimeError("CI section missing from reduced group")
        return wall

    ci_wall = reduce_all(0.95)
    plain_wall = reduce_all(0.0)
    return {
        "n_cells": n_cells,
        "n_groups": n_groups,
        "metrics_per_cell": 7,
        "cells_per_sec": round(n_cells / ci_wall),
        "cells_per_sec_no_ci": round(n_cells / plain_wall),
        "ci_overhead_pct": round((ci_wall / plain_wall - 1.0) * 100.0, 1),
    }


def bench_report(scale: float, jobs: int) -> dict:
    """Scaled-down report wall time, serial vs parallel (no cache)."""
    start = time.perf_counter()
    serial = generate_report(scale, runner=Runner(jobs=1, cache=None))
    serial_wall = time.perf_counter() - start

    start = time.perf_counter()
    parallel_runner = Runner(jobs=jobs, cache=None)
    parallel = generate_report(scale, runner=parallel_runner)
    parallel_wall = time.perf_counter() - start

    strip = lambda text: [  # noqa: E731 - wall-time footnotes differ by design
        line for line in text.splitlines() if "section wall time" not in line
    ]
    return {
        "duration_scale": scale,
        "jobs": jobs,
        "serial_wall_s": round(serial_wall, 2),
        "parallel_wall_s": round(parallel_wall, 2),
        "speedup": round(serial_wall / parallel_wall, 2),
        "pool_used": parallel_runner.used_pool,
        "tables_identical": strip(serial) == strip(parallel),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05,
                        help="report duration scale (default 0.05)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel worker count (default: $REPRO_JOBS "
                             "or the CPU count)")
    parser.add_argument("--skip-report", action="store_true",
                        help="only run the component microbenchmarks")
    parser.add_argument("-o", "--output", default=str(OUTPUT),
                        help="output JSON path (default: repo root)")
    args = parser.parse_args(argv)
    jobs = args.jobs if args.jobs is not None else default_jobs()

    print("engine: pure dispatch ...", flush=True)
    dispatch_eps = bench_dispatch()
    print(f"  {dispatch_eps:,.0f} events/sec")
    print("engine: cancel-heavy dispatch ...", flush=True)
    cancel_eps = bench_cancel_heavy()
    print(f"  {cancel_eps:,.0f} rounds/sec")
    print("telemetry: ring vs dict trace emission ...", flush=True)
    trace_ring = bench_trace_ring()
    print(f"  ring {trace_ring['ring_emit_events_per_sec']:,} vs dict "
          f"{trace_ring['dict_emit_events_per_sec']:,} events/sec "
          f"({trace_ring['emit_speedup']}x; decode "
          f"{trace_ring['ring_decode_events_per_sec']:,}/sec)")
    print("traffic: batched vs per-packet arrival generation ...", flush=True)
    batch = bench_batch_arrivals()
    print(f"  batch {batch['batch_arrivals_per_sec']:,} vs timer "
          f"{batch['periodic_timer_arrivals_per_sec']:,} arrivals/sec "
          f"({batch['speedup']}x)")
    print("campaign: shard reduction with CI sections ...", flush=True)
    campaign_reduce = bench_campaign_reduce()
    print(f"  {campaign_reduce['cells_per_sec']:,} cells/sec with CIs "
          f"({campaign_reduce['cells_per_sec_no_ci']:,} without, "
          f"+{campaign_reduce['ci_overhead_pct']}% for intervals)")

    report: dict | None = None
    if not args.skip_report:
        print(f"report: serial vs parallel (scale {args.scale:g}, "
              f"jobs {jobs}) ...", flush=True)
        report = bench_report(args.scale, jobs)
        print(f"  serial {report['serial_wall_s']}s, parallel "
              f"{report['parallel_wall_s']}s -> {report['speedup']}x "
              f"(pool used: {report['pool_used']}, tables identical: "
              f"{report['tables_identical']})")

    payload = {
        "version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "engine": {
            "dispatch_events_per_sec": round(dispatch_eps),
            "cancel_heavy_rounds_per_sec": round(cancel_eps),
        },
        "trace_ring": trace_ring,
        "batch_arrivals": batch,
        "campaign_reduce": campaign_reduce,
        "report": report,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
