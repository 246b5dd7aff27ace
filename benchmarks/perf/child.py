"""One rep of one workload, in a process of its own.

Run as ``python -m benchmarks.perf.child <workload> <seed> [--profile]``
by the harness: a fresh interpreter per rep keeps ``peak_rss_mb`` a
per-run number and stops heap and GC state leaking between reps.  The
workload name and the seed are all the child receives; it prints one
JSON object on its last line of standard output.

With ``--profile`` the run happens under ``cProfile``, enabled here and
not inside the simulator; the stats stay in memory until the run ends,
then ``trace/<workload>.pstats`` and the derived ``trace/<workload>.json``
are written next to this file.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import cProfile
import json
import pstats
import resource
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.analysis.stats import percentile
from repro.sim.engine import PeriodicTimer, events_processed_total

from benchmarks.perf import layers, workloads
from benchmarks.perf.spec import WORKLOAD_BY_NAME

TRACE_DIR = Path(__file__).resolve().parent / "trace"
#: Queue-depth sampler period (simulated µs), profiled child only.
DEPTH_SAMPLE_US = 10_000.0


class _Probes:
    """Read-only observers the profiled child adds from outside."""

    def __init__(self, built: workloads.Built, warmup_s: float) -> None:
        self.depths: List[int] = []
        self.transmissions = 0
        self.downlink = 0
        self.failed = 0
        sim = built.testbed.sim
        warmup_us = sim.sec(warmup_s)
        aps = built.aps

        def sample_depth() -> None:
            if sim.now >= warmup_us:
                self.depths.append(
                    sum(ap.total_queued_packets() for ap in aps)
                )

        def on_transmission(record) -> None:
            self.transmissions += 1
            self.downlink += record.downlink
            self.failed += not record.success

        PeriodicTimer(sim, DEPTH_SAMPLE_US, sample_depth).start()
        for medium in built.mediums:
            medium.add_observer(on_transmission)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _counters(built: workloads.Built, probes: _Probes, stats: Dict,
              summary: Optional[Dict], packets: int) -> Dict[str, float]:
    """Work/waste counters from public attributes and call counts."""
    testbed = built.testbed
    stations = testbed.stations
    drops = workloads.drops_by_layer_reason(built)
    downlink_offered = sum(ap.downlink_enqueued for ap in built.aps)
    uplink_offered = sum(
        st.tx_packets + st.uplink_drops + st.uplink_backlog
        for st in stations.values()
    )
    offered = downlink_offered + uplink_offered
    slowest = min(st.rate.bps for st in stations.values())
    aggr = {"fast": [], "slow": []}
    for index, st in stations.items():
        mean = workloads.mean_aggregation(built, index)
        if mean > 0:
            aggr["slow" if st.rate.bps == slowest else "fast"].append(mean)
    retransmits = sum(c.sender.retransmits for c in built.tcp_conns)
    acked = sum(c.sender.acked_segments for c in built.tcp_conns)
    summary = summary or {}
    return {
        "core.airtime.schedule_calls_per_agg": _share(
            layers.calls_to(stats, "core/airtime.py", "schedule"),
            probes.downlink),
        "core.mac_fq.tid_calls_per_pkt": _share(
            layers.calls_to(stats, "core/mac_fq.py", "tid"), packets),
        "core.mac_fq.drop_share": _share(
            drops.get("mac:overlimit", 0), downlink_offered),
        "core.codel.drop_share": _share(
            sum(n for key, n in drops.items() if key.endswith(":codel")),
            offered),
        "qdisc.drop_share": _share(
            sum(n for key, n in drops.items()
                if key.startswith("qdisc:")
                or key in ("client:overlimit", "client:codel")),
            offered),
        "mac.aggregation.mean_aggr_fast": _share(
            sum(aggr["fast"]), len(aggr["fast"])),
        "mac.aggregation.mean_aggr_slow": _share(
            sum(aggr["slow"]), len(aggr["slow"])),
        "mac.medium.busy_share": _share(
            sum(m.busy_time_us for m in built.mediums),
            len(built.mediums) * testbed.sim.now),
        "mac.medium.collision_share": _share(
            sum(m.collision_count for m in built.mediums),
            probes.transmissions),
        "mac.medium.retry_share": _share(probes.failed, probes.transmissions),
        "mac.ap.queue_depth_p50": percentile(probes.depths, 50),
        "mac.ap.queue_depth_p99": percentile(probes.depths, 99),
        "traffic.tcp.retransmit_share": _share(
            retransmits, acked + retransmits),
        "telemetry.trace.records_per_pkt": _share(
            summary.get("trace_records", 0), packets),
        "telemetry.trace.ring_drops": summary.get("trace_dropped", 0),
        "model.airtime_share_max_err": workloads.model_share_error(built),
    }


def _ledger(name: str, profiler: cProfile.Profile, built: workloads.Built,
            probes: _Probes, summary: Optional[Dict], packets: int,
            wall_s: float) -> Dict[str, Any]:
    """Per-layer metrics of the profiled run; writes the trace files."""
    table = pstats.Stats(profiler)
    stats = table.stats
    buckets = layers.bucket(stats)
    edges = layers.boundaries(stats)
    # What the profiler spent between its own callbacks belongs to no
    # function (about 1% of the wall); it is outside repro, so it goes
    # to stdlib and the buckets sum to the profiled wall exactly.
    unattributed_s = wall_s - sum(e["self_s"] for e in buckets.values())
    buckets["stdlib"]["self_s"] += unattributed_s
    per_layer: Dict[str, float] = {}
    for layer, entry in buckets.items():
        per_layer[f"{layer}.self_us_per_pkt"] = entry["self_s"] * 1e6 / packets
        per_layer[f"{layer}.calls_per_pkt"] = entry["calls"] / packets
    for boundary, entry in edges.items():
        per_layer[f"{boundary}.cum_us_per_pkt"] = (
            entry["cum_s"] * 1e6 / packets
        )
    per_layer.update(_counters(built, probes, stats, summary, packets))

    TRACE_DIR.mkdir(exist_ok=True)
    table.dump_stats(TRACE_DIR / f"{name}.pstats")
    (TRACE_DIR / f"{name}.json").write_text(json.dumps({
        "workload": name,
        "packets": packets,
        "per_layer": per_layer,
        "boundaries": edges,
    }, indent=2) + "\n")
    return {
        "per_layer": per_layer,
        "unattributed_share": unattributed_s / wall_s,
    }


def run_rep(
    name: str,
    seed: int,
    profile: bool = False,
    duration_s: Optional[float] = None,
    warmup_s: Optional[float] = None,
    started: Optional[float] = None,
) -> Dict[str, Any]:
    """Build, run and read one workload; the body of a child process.

    ``duration_s``/``warmup_s`` override the calibrated constants for
    the harness self-tests only.
    """
    if started is None:
        started = time.perf_counter()
    workload = WORKLOAD_BY_NAME[name]
    duration_s = workload.duration_s if duration_s is None else duration_s
    warmup_s = workload.warmup_s if warmup_s is None else warmup_s

    built = workloads.build(name, seed)
    testbed = built.testbed
    profiler = cProfile.Profile() if profile else None
    probes = _Probes(built, warmup_s) if profile else None
    events_before = events_processed_total()
    setup_s = time.perf_counter() - started

    run_started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    window_us = testbed.run(duration_s, warmup_s)
    summary = testbed.finish_telemetry()
    if profiler is not None:
        profiler.disable()
    wall_s = time.perf_counter() - run_started
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    sim = workloads.simulated(built, window_us)
    packets = sim["packets"]
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "host_us_per_pkt": wall_s * 1e6 / packets,
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "goodput_mbps": sim["goodput_mbps"],
        "jain_airtime": sim["jain_airtime"],
        "p99_latency_ms": sim["p99_latency_ms"],
        "latency_samples": sim["latency_us"]["count"],
        "packets": packets,
        "events": events_processed_total() - events_before,
        "sim_seconds": duration_s + warmup_s,
        "sim_digest": sim["sim_digest"],
        "conservation_balance": workloads.conservation_balance(built),
    }
    if profiler is not None:
        result.update(_ledger(name, profiler, built, probes, summary, packets,
                              wall_s))
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOAD_BY_NAME))
    parser.add_argument("seed", type=int)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    result = run_rep(args.workload, args.seed, profile=args.profile,
                     started=_STARTED)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
