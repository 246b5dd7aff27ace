"""What the benchmark measures: workloads, metrics, layers, interactions.

Pure data, no imports from the simulator.  ``manifest()`` renders the
part of it that the root ``BENCHMARK.json`` repeats in the driver's
schema; ``test_harness.py`` fails when the two drift apart.  The names
here are final: later issues cite them verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Seconds one driver invocation measures (``--seconds``): reps are
#: started while they still fit in this budget.
RUN_SECONDS = 14

#: Independent replications of a workload inside one invocation.  Rep
#: ``i`` simulates replication ``i % REPLICATIONS``; the simulated
#: metrics are the mean over the replications, which is what keeps the
#: chaotic TCP workloads steady from one ``--seed`` to the next.
REPLICATIONS = 4


def sim_seed(seed: int, rep: int) -> int:
    """The simulator seed of rep ``rep`` under benchmark seed ``seed``."""
    return seed * REPLICATIONS + rep % REPLICATIONS


@dataclass(frozen=True)
class Workload:
    name: str
    #: Simulated measurement window and warm-up, calibrated once so one
    #: rep costs ``host_s`` of host time on the reference 2-core box.
    duration_s: float
    warmup_s: float
    host_s: float
    loop: str
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "udp3_airtime", 14.0, 1.0, 1.4, "open",
        "Fig. 5 saturating downstream UDP to 2 fast + 1 slow station under "
        "Airtime: the paper's headline per-packet path (mac_fq, codel, "
        "airtime scheduler, aggregation).",
    ),
    Workload(
        "udp3_fifo", 22.0, 1.0, 1.4, "open",
        "Same traffic under Scheme.FIFO: bypass control, mac_fq and the "
        "airtime scheduler are never entered, so their optimisations must "
        "show no change here.",
    ),
    Workload(
        "tcp3_bidir_airtime", 18.0, 8.0, 2.5, "closed",
        "TCP download + upload per station plus 50 ms pings: uplink "
        "fq_codel, station-vs-AP contention, ACK clocking and "
        "retransmit-timer cancel churn.",
    ),
    Workload(
        "tcp30_airtime", 30.0, 2.0, 3.1, "closed",
        "Fig. 9/10 with 1 slow + 28 fast TCP downloads and pings: 30 "
        "stations, so any O(stations) cost per scheduling decision shows.",
    ),
    Workload(
        "campus3_cochannel", 6.0, 1.0, 1.6, "open",
        "Three co-channel BSSes, 9 stations, saturating UDP through "
        "CampusTestbed: the second testbed path and CampusNetwork routing.",
    ),
    Workload(
        "udp3_airtime_spans", 5.0, 1.0, 1.5, "open",
        "udp3_airtime with trace + spans + ledger: telemetry "
        "trace/spans/ledger do most of the work.",
    ),
    Workload(
        "udp3_airtime_stream", 6.0, 1.0, 1.4, "open",
        "udp3_airtime with streaming telemetry, the mode campaigns run "
        "in: taps and sketches on every record.",
    ),
)

WORKLOAD_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}

#: The untraced reference the two telemetry workloads are compared with.
TELEMETRY_REFERENCE = "udp3_airtime"
TELEMETRY_OVERHEAD = {
    "udp3_airtime_spans": "telemetry.overhead_pct.spans",
    "udp3_airtime_stream": "telemetry.overhead_pct.stream",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Relative worsening that counts as a regression (end-to-end only).
    bound: float = 0.0
    #: How reps are reduced to the reported value.
    estimator: str = "median"


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    # Interference on a shared box only adds time, so the low quartile
    # of the reps estimates the program.
    Metric("wall_s", "s", "lower", 0.25, "p25"),
    Metric("host_us_per_pkt", "us/pkt", "lower", 0.25, "p25"),
    Metric("peak_rss_mb", "MiB", "lower", 0.05),
    # Simulated: exact per seed, the mean over the replications.  (A
    # ping P99 over one 30 s window is bimodal -- it either caught a
    # slow-station queue peak or did not -- and a median of four of
    # those stays bimodal where their mean does not.)
    Metric("goodput_mbps", "Mbit/s", "higher", 0.03, "mean"),
    Metric("jain_airtime", "ratio", "higher", 0.02, "mean"),
    Metric("p99_latency_ms", "ms", "lower", 0.25, "mean"),
)

#: Reported by the suite and judged by ``compare`` with an absolute
#: bound of 0; the driver's schema carries it as ``failed``/``attempted``
#: because a metric that is normally 0 cannot take a relative bound.
FAIL_SHARE = Metric("fail_share", "ratio", "lower", 0.0)

# ----------------------------------------------------------------------
# Layers: this repository's modules (paths relative to src/repro/).
# ----------------------------------------------------------------------
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "traffic.udp": ("traffic/udp.py", "traffic/arrivals.py"),
    "traffic.tcp": ("traffic/tcp.py",),
    "net.wire": ("net/wire.py",),
    "qdisc.pfifo": ("qdisc/pfifo.py",),
    "qdisc.fq_codel": ("qdisc/fq_codel_qdisc.py",),
    "core.mac_fq": ("core/mac_fq.py",),
    "core.codel": ("core/codel.py", "core/fq_codel.py"),
    "core.airtime": ("core/airtime.py",),
    "core.station_rr": ("core/station_rr.py",),
    "mac.ap": ("mac/ap.py",),
    "mac.aggregation": ("mac/aggregation.py",),
    "mac.hwqueue": ("mac/hwqueue.py",),
    "mac.driver": ("mac/driver.py",),
    "mac.medium": ("mac/medium.py",),
    "mac.station": ("mac/station.py",),
    "sim.engine": ("sim/engine.py",),
    "sim.batch": ("sim/batch.py",),
    # Each with its post-run half: the summariser reads the trace, the
    # attribution pass reads the spans.
    "telemetry.trace": ("telemetry/trace.py", "telemetry/ring.py",
                        "telemetry/summarize.py"),
    "telemetry.spans": ("telemetry/spans.py", "analysis/attribution.py"),
    "telemetry.ledger": ("telemetry/ledger.py",),
    "telemetry.streaming": ("telemetry/streaming.py",),
    "analysis.stats": ("analysis/stats.py",),
    "topology.campus": ("topology/campus.py",),
}
LAYERS: Tuple[str, ...] = tuple(LAYER_MODULES)
#: Catch-all buckets: the rest of ``repro`` and everything outside it.
CATCH_ALL: Tuple[str, ...] = ("other", "stdlib")

#: Public boundary functions whose inclusive time the ledger reads, as
#: (module path, function name) pairs summed under one metric.
BOUNDARIES: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "mac.ap.send_downstream": (("mac/ap.py", "send_downstream"),),
    "core.mac_fq.enqueue": (("core/mac_fq.py", "enqueue"),),
    "core.mac_fq.dequeue": (("core/mac_fq.py", "dequeue"),),
    "core.airtime.schedule": (("core/airtime.py", "schedule"),),
    "mac.aggregation.build": (("mac/aggregation.py", "build"),),
    "mac.ap.txop_complete": (("mac/ap.py", "txop_complete"),),
    "mac.station.receive_from_ap": (("mac/station.py", "receive_from_ap"),),
    "mac.station.send": (("mac/station.py", "send"),),
    "net.wire.to_ap": (("net/wire.py", "to_ap"),),
    "qdisc.enqueue": (("qdisc/pfifo.py", "enqueue"),
                      ("qdisc/fq_codel_qdisc.py", "enqueue")),
    "qdisc.dequeue": (("qdisc/pfifo.py", "dequeue"),
                      ("qdisc/fq_codel_qdisc.py", "dequeue")),
}

#: Work/waste counters: exact per seed unless marked host.
COUNTERS: Tuple[Metric, ...] = (
    Metric("sim.engine.events_per_pkt", "1/pkt", "lower"),
    Metric("sim.engine.events_per_s", "1/s", "higher"),  # host
    Metric("core.airtime.schedule_calls_per_agg", "ratio", "lower"),
    Metric("core.mac_fq.tid_calls_per_pkt", "1/pkt", "lower"),
    Metric("core.mac_fq.drop_share", "ratio", "lower"),
    Metric("core.codel.drop_share", "ratio", "lower"),
    Metric("qdisc.drop_share", "ratio", "lower"),
    Metric("mac.aggregation.mean_aggr_fast", "pkts", "higher"),
    Metric("mac.aggregation.mean_aggr_slow", "pkts", "higher"),
    Metric("mac.medium.busy_share", "ratio", "higher"),
    Metric("mac.medium.collision_share", "ratio", "lower"),
    Metric("mac.medium.retry_share", "ratio", "lower"),
    Metric("mac.ap.queue_depth_p50", "pkts", "lower"),
    Metric("mac.ap.queue_depth_p99", "pkts", "lower"),
    Metric("traffic.tcp.retransmit_share", "ratio", "lower"),
    Metric("telemetry.trace.records_per_pkt", "1/pkt", "lower"),
    Metric("telemetry.trace.ring_drops", "count", "lower"),
    Metric("telemetry.overhead_pct.spans", "%", "lower"),  # host
    Metric("telemetry.overhead_pct.stream", "%", "lower"),  # host
    Metric("model.airtime_share_max_err", "ratio", "lower"),
    Metric("bench.profile_overhead_pct", "%", "lower"),  # host
)


def per_layer_metrics() -> List[Metric]:
    """Every ``--trace`` metric, in reporting order."""
    out: List[Metric] = []
    for layer in LAYERS + CATCH_ALL:
        out.append(Metric(f"{layer}.self_us_per_pkt", "us/pkt", "lower"))
        out.append(Metric(f"{layer}.calls_per_pkt", "1/pkt", "lower"))
    for boundary in BOUNDARIES:
        out.append(Metric(f"{boundary}.cum_us_per_pkt", "us/pkt", "lower"))
    out.extend(COUNTERS)
    return out


# ----------------------------------------------------------------------
# How the metrics interact — written down before measuring.  Each row:
# when these layer metrics fall, which end-to-end metrics should move,
# on which workloads, and where the prediction is "no change".
# ----------------------------------------------------------------------
_AIRTIME_UDP = ("udp3_airtime", "udp3_airtime_spans", "udp3_airtime_stream")
_UDP = _AIRTIME_UDP + ("udp3_fifo",)
_TCP = ("tcp3_bidir_airtime", "tcp30_airtime")
_ALL = tuple(w.name for w in WORKLOADS)

INTERACTIONS: Tuple[Dict[str, object], ...] = (
    {
        "layer_metrics": ["core.mac_fq.*", "core.airtime.*", "core.codel.*",
                          "core.mac_fq.tid_calls_per_pkt",
                          "core.airtime.schedule_calls_per_agg"],
        "moves": ["wall_s", "host_us_per_pkt"],
        "on": ["udp3_airtime", "tcp30_airtime", "campus3_cochannel"],
        "not_on": ["udp3_fifo"],
        "note": "never entered under FIFO",
    },
    {
        "layer_metrics": ["qdisc.pfifo.*", "mac.driver.*"],
        "moves": ["wall_s"],
        "on": ["udp3_fifo"],
        "not_on": [w for w in _ALL if w != "udp3_fifo"],
        "note": "the AP side of every Airtime workload bypasses them",
    },
    {
        "layer_metrics": ["traffic.udp.*", "sim.batch.*", "net.wire.*"],
        "moves": ["wall_s"],
        "on": list(_UDP) + ["campus3_cochannel"],
        "not_on": list(_TCP),
        "note": "open loop: per-arrival cost is paid for packets later "
                "dropped too, so it weighs by offered, not delivered, load",
    },
    {
        "layer_metrics": ["traffic.tcp.*", "qdisc.fq_codel.*",
                          "mac.station.send.cum_us_per_pkt"],
        "moves": ["wall_s"],
        "on": list(_TCP),
        "not_on": list(_UDP),
        "note": "",
    },
    {
        "layer_metrics": ["sim.engine.events_per_pkt", "sim.engine.*"],
        "moves": ["wall_s"],
        "on": list(_ALL),
        "not_on": [],
        "note": "most on tcp3_bidir_airtime (cancel churn); the engine is "
                "about a sixth of self time, so at most that share is on "
                "offer",
    },
    {
        "layer_metrics": ["mac.medium.*", "mac.aggregation.*",
                          "mac.hwqueue.*"],
        "moves": ["wall_s"],
        "on": ["udp3_fifo", "tcp3_bidir_airtime"],
        "not_on": ["udp3_airtime"],
        "note": "paid per aggregate, not per packet: the gain scales with "
                "1/mean_aggr, so it is small where aggregates are large",
    },
    {
        "layer_metrics": ["telemetry.trace.*", "telemetry.spans.*",
                          "telemetry.ledger.*"],
        "moves": ["wall_s", "peak_rss_mb"],
        "on": ["udp3_airtime_spans"],
        "not_on": ["udp3_airtime"],
        "note": "zero cost when off must stay zero",
    },
    {
        "layer_metrics": ["telemetry.streaming.*"],
        "moves": ["wall_s", "peak_rss_mb"],
        "on": ["udp3_airtime_stream"],
        "not_on": list(_TCP),
        "note": "a faster QuantileSketch.observe also moves every udp* and "
                "campus* row a little: the sinks' delay sketch is that class",
    },
    {
        "layer_metrics": ["topology.campus.*"],
        "moves": ["wall_s", "setup_s"],
        "on": ["campus3_cochannel"],
        "not_on": [w for w in _ALL if w != "campus3_cochannel"],
        "note": "until Testbed is rebuilt on the campus builder, then all",
    },
    {
        "layer_metrics": ["import and build cost"],
        "moves": ["setup_s"],
        "on": list(_ALL),
        "not_on": [],
        "note": "tcp30_airtime most (30 stations, 29 connections); work "
                "moved from the run into set-up shows as setup_s up, not "
                "wall_s down",
    },
    {
        "layer_metrics": ["mac.medium.collision_share", "*.drop_share",
                          "mac.aggregation.mean_aggr_*"],
        "moves": ["goodput_mbps", "jain_airtime", "p99_latency_ms"],
        "on": list(_ALL),
        "not_on": [],
        "note": "these are model changes: a performance-only change must "
                "leave them and sim_digest identical",
    },
)


def manifest() -> Dict[str, object]:
    """The root ``BENCHMARK.json``, in the driver's schema."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in per_layer_metrics()
        ],
    }
