"""Campus experiment: dense-venue multi-BSS airtime fairness.

Runs a :class:`~repro.topology.spec.Topology` of N BSSes under
saturating downstream UDP and reports per-BSS and aggregate Jain
fairness plus sojourn-time tails — the paper's single-cell question
(does airtime fairness end the rate anomaly?) asked at campus scale,
where co-channel cells contend and stations roam.

Execution shards the topology by channel group
(:meth:`Topology.channel_shards`): disjoint channels never interact, so
each shard is an independent :class:`~repro.runner.spec.RunSpec` the
Runner can fan out across processes, while co-channel groups are
simulated jointly.  The channel-isolation property test pins the fact
that this decomposition is exact, not approximate.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.faults.schedule import Churn
from repro.mac.ap import Scheme
from repro.runner import RunSpec, Runner, execute
from repro.analysis.fairness import jain_index
from repro.experiments.workloads import saturating_udp_download
from repro.telemetry.streaming import QuantileSketch
from repro.topology import (
    CampusOptions,
    CampusTestbed,
    RoamEvent,
    Topology,
    campus_topology,
)

__all__ = [
    "campus_metrics",
    "default_topology",
    "format_table",
    "run",
    "run_shard",
    "specs",
]

_SCHEMES = {name.lower(): scheme
            for name, scheme in Scheme.__members__.items()}


def _resolve_scheme(name) -> Scheme:
    if isinstance(name, Scheme):
        return name
    try:
        return _SCHEMES[str(name).lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; expected one of {sorted(_SCHEMES)}"
        ) from None


def _delay_ms(sketch: QuantileSketch, q: float) -> float:
    return round(sketch.quantile(q) / 1000.0, 3) if sketch.count else 0.0


def campus_metrics(campus: CampusTestbed, flows: Dict, window_us: float) -> Dict:
    """JSON-ready per-BSS + aggregate metrics for one campus run.

    Per-BSS sojourn tails merge the member stations' delay sketches
    (stations are attributed to their *final* serving cell, so a roamer
    counts where it landed); the aggregate merges everything.
    """
    topology = campus.topology
    per_bss: Dict[str, Dict] = {}
    total_airtime: Dict[int, float] = {}
    aggregate_delay = QuantileSketch()
    total_mbps = 0.0
    for spec in topology.bsses:
        tracker = campus.trackers[spec.bss_id]
        for station, airtime in tracker.airtime_us.items():
            total_airtime[station] = total_airtime.get(station, 0.0) + airtime
        members = sorted(
            index for index, bss in campus.serving.items()
            if bss == spec.bss_id
        )
        delay = QuantileSketch()
        for index in members:
            flow = flows.get(index)
            if flow is not None:
                delay.merge(flow.sink.delay)
        bss_mbps = sum(
            tracker.throughput_bps(index, window_us) / 1e6
            for index in tracker.delivered_bytes
        )
        total_mbps += bss_mbps
        per_bss[str(spec.bss_id)] = {
            "channel": spec.channel,
            "stations": len(members),
            "jain_airtime": round(tracker.jain_airtime(), 4),
            "total_mbps": round(bss_mbps, 3),
            "p50_ms": _delay_ms(delay, 0.50),
            "p95_ms": _delay_ms(delay, 0.95),
            "p99_ms": _delay_ms(delay, 0.99),
        }
        aggregate_delay.merge(delay)
    channels = {
        str(channel): {
            "busy_share": round(campus.busy_share(channel, window_us), 4),
        }
        for channel in topology.channels()
    }
    worst_p99 = max(cell["p99_ms"] for cell in per_bss.values())
    return {
        "bss": per_bss,
        "channels": channels,
        "aggregate": {
            "stations": topology.n_stations,
            "jain_airtime": round(
                jain_index(total_airtime.get(s, 0.0)
                           for s in sorted(total_airtime)), 4),
            "total_mbps": round(total_mbps, 3),
            "p50_ms": _delay_ms(aggregate_delay, 0.50),
            "p95_ms": _delay_ms(aggregate_delay, 0.95),
            "p99_ms": _delay_ms(aggregate_delay, 0.99),
            "worst_bss_p99_ms": worst_p99,
        },
        "roams": len(campus.roam_log),
        "roam_flushed": sum(entry[4] for entry in campus.roam_log),
        "churn_events": (campus.fault_injector.detaches
                         if campus.fault_injector is not None else 0),
    }


def run_shard(
    topology: Topology,
    scheme: str = "airtime",
    duration_s: float = 4.0,
    warmup_s: float = 1.0,
    seed: int = 1,
    strict: bool = True,
) -> Dict:
    """Simulate one channel shard end-to-end; a RunSpec target.

    ``topology`` rides in the RunSpec kwargs (frozen dataclasses are
    canonicalised into the cache digest), so shard results cache and
    replay byte-identically like every other experiment.
    """
    options = CampusOptions(scheme=_resolve_scheme(scheme), seed=seed,
                            strict=strict)
    campus = CampusTestbed(topology, options)
    flows = saturating_udp_download(campus)
    window_us = campus.run(duration_s, warmup_s=warmup_s)
    return campus_metrics(campus, flows, window_us)


def default_topology() -> Topology:
    """The CLI's dense-venue scenario: 6 BSSes striped over 2 channels.

    Two co-channel groups of three cells each, the paper's 2-fast+1-slow
    station mix per cell, one station roaming between co-channel cells
    mid-run and one powersave churn cycle — every mechanism the topology
    layer adds, in one run.
    """
    return campus_topology(
        n_bss=6,
        n_channels=2,
        stations_per_bss=3,
        roam=(RoamEvent(station=0, at_s=2.0, to_bss=2),),
        churn=(Churn(station=4, detach_s=1.5, reattach_s=2.5, mode="park"),),
    )


def specs(
    topology: Optional[Topology] = None,
    scheme: str = "airtime",
    duration_s: float = 4.0,
    warmup_s: float = 1.0,
    seed: int = 1,
) -> List[RunSpec]:
    """One RunSpec per channel shard of ``topology``."""
    topology = topology if topology is not None else default_topology()
    out: List[RunSpec] = []
    for shard in topology.channel_shards():
        label = "ch" + "+".join(str(c) for c in shard.channels())
        out.append(RunSpec.make(
            "repro.experiments.campus:run_shard",
            label=f"campus/{scheme}/{label}",
            topology=shard,
            scheme=scheme,
            duration_s=duration_s,
            warmup_s=warmup_s,
            seed=seed,
        ))
    return out


def _merge(shard_results: List[Dict]) -> Dict:
    """Merge shard reports into one campus-wide report.

    Quantiles cannot be merged from rounded quantiles, so aggregate
    tails are reported as the worst shard's tail — a conservative upper
    bound, clearly labelled.  Jain re-aggregation uses the per-BSS
    airtime sums, which *are* exactly mergeable.
    """
    merged: Dict = {"bss": {}, "channels": {}}
    total_mbps = 0.0
    stations = 0
    jain_weighted = 0.0
    roams = flushed = churn = 0
    worst = {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
    for result in shard_results:
        merged["bss"].update(result["bss"])
        merged["channels"].update(result["channels"])
        agg = result["aggregate"]
        total_mbps += agg["total_mbps"]
        stations += agg["stations"]
        jain_weighted += agg["jain_airtime"] * agg["stations"]
        for key in worst:
            worst[key] = max(worst[key], agg[key])
        roams += result["roams"]
        flushed += result["roam_flushed"]
        churn += result["churn_events"]
    merged["aggregate"] = {
        "stations": stations,
        "mean_shard_jain": round(jain_weighted / stations, 4) if stations else 0.0,
        "total_mbps": round(total_mbps, 3),
        "worst_shard_p50_ms": worst["p50_ms"],
        "worst_shard_p95_ms": worst["p95_ms"],
        "worst_shard_p99_ms": worst["p99_ms"],
    }
    merged["roams"] = roams
    merged["roam_flushed"] = flushed
    merged["churn_events"] = churn
    return merged


def run(
    topology: Optional[Topology] = None,
    scheme: str = "airtime",
    duration_s: float = 4.0,
    warmup_s: float = 1.0,
    seed: int = 1,
    runner: Optional[Runner] = None,
) -> Dict:
    """Run a campus scenario, sharded by channel group."""
    shard_specs = specs(topology, scheme=scheme, duration_s=duration_s,
                        warmup_s=warmup_s, seed=seed)
    results = execute(shard_specs, runner)
    return _merge(list(results))


def format_table(merged: Dict) -> str:
    lines = ["Campus scenario — per-BSS airtime fairness + sojourn tails", ""]
    header = (f"{'bss':>4} {'ch':>3} {'stations':>8} {'jain':>7} "
              f"{'Mbit/s':>8} {'P50 ms':>8} {'P95 ms':>8} {'P99 ms':>8}")
    lines.append(header)
    lines.append("-" * len(header))
    for bss_id in sorted(merged["bss"], key=int):
        cell = merged["bss"][bss_id]
        lines.append(
            f"{bss_id:>4} {cell['channel']:>3} {cell['stations']:>8} "
            f"{cell['jain_airtime']:>7.3f} {cell['total_mbps']:>8.2f} "
            f"{cell['p50_ms']:>8.2f} {cell['p95_ms']:>8.2f} "
            f"{cell['p99_ms']:>8.2f}"
        )
    agg = merged["aggregate"]
    lines.append("-" * len(header))
    lines.append(
        f"aggregate: {agg['stations']} stations, "
        f"mean shard Jain {agg['mean_shard_jain']:.3f}, "
        f"{agg['total_mbps']:.1f} Mbit/s, "
        f"worst-shard P95 {agg['worst_shard_p95_ms']:.2f} ms, "
        f"P99 {agg['worst_shard_p99_ms']:.2f} ms"
    )
    lines.append(
        f"churn: {merged['roams']} roams "
        f"({merged['roam_flushed']} pkts flushed), "
        f"{merged['churn_events']} detach events"
    )
    for channel in sorted(merged["channels"], key=int):
        share = merged["channels"][channel]["busy_share"]
        lines.append(f"channel {channel}: busy share {share:.3f}")
    return "\n".join(lines)
