"""Build the seven workloads and read their results, public API only.

Everything here drives the simulator from outside: ``Testbed`` /
``CampusTestbed``, the ``experiments.workloads`` traffic helpers,
``TelemetryConfig``, the conservation audits, ``AirtimeTracker`` and
the sink / connection / ping accessors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

from repro.analysis.fairness import jain_index
from repro.analysis.stats import percentile
from repro.experiments import workloads as traffic
from repro.experiments.config import three_station_rates, thirty_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.faults import audit_conservation
from repro.mac.ap import Scheme
from repro.model.analytical import StationModel, predict
from repro.telemetry import QuantileSketch, TelemetryConfig
from repro.topology import CampusOptions, CampusTestbed, campus_topology
from repro.traffic.udp import DEFAULT_UDP_PACKET

from benchmarks.perf.stats import digest

PING_INTERVAL_US = 50_000.0
#: Fig. 9/10 roles in the 30-station testbed.
TCP30_SLOW, TCP30_FAST, TCP30_SPARSE = 0, tuple(range(1, 29)), 29

SPANS = TelemetryConfig(
    trace=True,
    categories=("queue", "agg", "hw", "driver", "tx"),
    spans=True,
    ledger=True,
)
STREAM = TelemetryConfig(streaming=True)


@dataclass
class Built:
    """One workload, wired and ready for ``testbed.run()``."""

    testbed: Any
    udp_flows: Dict[int, Any] = field(default_factory=dict)
    tcp_conns: List[Any] = field(default_factory=list)
    pings: Dict[int, Any] = field(default_factory=dict)
    #: Stations whose airtime the Jain index covers.
    contending: Sequence[int] = ()
    #: The §2.2.1 model applies: one AP, saturating UDP to every station.
    model_applies: bool = False

    @property
    def campus(self) -> bool:
        return isinstance(self.testbed, CampusTestbed)

    @property
    def aps(self) -> List[Any]:
        tb = self.testbed
        if self.campus:
            return [stack.ap for stack in tb.bss.values()]
        return [tb.ap]

    @property
    def mediums(self) -> List[Any]:
        tb = self.testbed
        return list(tb.mediums.values()) if self.campus else [tb.medium]

    @property
    def trackers(self) -> List[Any]:
        tb = self.testbed
        return list(tb.trackers.values()) if self.campus else [tb.tracker]


def _udp3(seed: int, scheme: Scheme = Scheme.AIRTIME,
          telemetry: TelemetryConfig | None = None) -> Built:
    testbed = Testbed(
        three_station_rates(),
        TestbedOptions(scheme=scheme, seed=seed, telemetry=telemetry),
    )
    flows = traffic.saturating_udp_download(testbed)
    return Built(testbed, udp_flows=flows, contending=sorted(flows),
                 model_applies=True)


def _tcp3_bidir(seed: int) -> Built:
    testbed = Testbed(three_station_rates(), TestbedOptions(seed=seed))
    conns = traffic.tcp_bidir(testbed)
    pings = traffic.add_pings(testbed, interval_us=PING_INTERVAL_US)
    return Built(
        testbed,
        tcp_conns=[c for pair in conns.values() for c in pair.values()],
        pings=pings,
        contending=sorted(conns),
    )


def _tcp30(seed: int) -> Built:
    testbed = Testbed(thirty_station_rates(), TestbedOptions(seed=seed))
    bulk = [TCP30_SLOW, *TCP30_FAST]
    conns = traffic.tcp_download(testbed, bulk)
    pings = traffic.add_pings(
        testbed, [TCP30_SLOW, TCP30_FAST[0], TCP30_SPARSE],
        interval_us=PING_INTERVAL_US,
    )
    # The ping-only station is left out of the index, as in Fig. 9.
    return Built(testbed, tcp_conns=list(conns.values()), pings=pings,
                 contending=bulk)


def _campus3(seed: int) -> Built:
    campus = CampusTestbed(
        campus_topology(n_bss=3, n_channels=1), CampusOptions(seed=seed)
    )
    flows = traffic.saturating_udp_download(campus)
    return Built(campus, udp_flows=flows, contending=sorted(flows))


BUILDERS: Dict[str, Callable[[int], Built]] = {
    "udp3_airtime": _udp3,
    "udp3_fifo": lambda seed: _udp3(seed, scheme=Scheme.FIFO),
    "tcp3_bidir_airtime": _tcp3_bidir,
    "tcp30_airtime": _tcp30,
    "campus3_cochannel": _campus3,
    "udp3_airtime_spans": lambda seed: _udp3(seed, telemetry=SPANS),
    "udp3_airtime_stream": lambda seed: _udp3(seed, telemetry=STREAM),
}


def build(name: str, seed: int) -> Built:
    """Wire workload ``name``; the seed is the only generated input."""
    return BUILDERS[name](seed)


# ----------------------------------------------------------------------
# Reading results
# ----------------------------------------------------------------------
def conservation_balance(built: Built) -> int:
    """Sum of |enqueued - delivered - dropped - resident| over shards."""
    if built.campus:
        reports = built.testbed.audit_conservation().values()
    else:
        reports = [audit_conservation(built.testbed)]
    return sum(abs(report.balance) for report in reports)


def _latency_probe(built: Built) -> Dict[str, float]:
    """The workload's latency probe, in µs: sink delay or ping RTT."""
    if built.pings:
        rtts = sorted(
            rtt for ping in built.pings.values() for rtt in ping.rtts_us
        )
        return {
            "count": len(rtts),
            "p50": percentile(rtts, 50),
            "p90": percentile(rtts, 90),
            "p99": percentile(rtts, 99),
            "max": rtts[-1],
        }
    merged = QuantileSketch()
    for flow in built.udp_flows.values():
        merged.merge(flow.sink.delay)
    p50, p90, p99, top = merged.quantiles((0.5, 0.9, 0.99, 1.0))
    return {"count": merged.count, "p50": p50, "p90": p90, "p99": p99,
            "max": top}


def drops_by_layer_reason(built: Built) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for ap in built.aps:
        for layer, reasons in ap.drops.counts.items():
            for reason, count in reasons.items():
                key = f"{layer}:{reason}"
                out[key] = out.get(key, 0) + count
    return out


def mean_aggregation(built: Built, station: int) -> float:
    # A station's downlink transmissions land in exactly one tracker.
    return max(t.mean_aggregation(station) for t in built.trackers)


def model_share_error(built: Built) -> float:
    """max |measured - §2.2.1 predicted| airtime share (0 where the
    model does not apply)."""
    if not built.model_applies:
        return 0.0
    testbed = built.testbed
    stations = sorted(testbed.stations)
    predicted = predict(
        [StationModel(mean_aggregation(built, s), DEFAULT_UDP_PACKET,
                      testbed.stations[s].rate) for s in stations],
        airtime_fairness=testbed.options.scheme is Scheme.AIRTIME,
    )
    measured = testbed.tracker.airtime_shares(stations)
    return max(
        abs(measured[s] - p.airtime_share)
        for s, p in zip(stations, predicted)
    )


def simulated(built: Built, window_us: float) -> Dict[str, Any]:
    """Everything the run computed in simulated terms, plus its digest.

    Event counts are left out on purpose: an optimisation may reduce
    them without changing the model.
    """
    testbed = built.testbed
    stations = sorted(testbed.stations)
    airtime = {
        s: sum(t.airtime_us.get(s, 0.0) for t in built.trackers)
        for s in stations
    }
    if built.tcp_conns:
        goodput_bps = sum(c.window_throughput_bps() for c in built.tcp_conns)
    else:
        goodput_bps = sum(
            f.sink.window_throughput_bps() for f in built.udp_flows.values()
        )
    latency = _latency_probe(built)
    packets = (
        sum(testbed.stations[s].rx_packets for s in stations)
        + testbed.server.rx_packets
    )
    stats: Dict[str, Any] = {
        "window_us": window_us,
        "airtime_us": airtime,
        "delivered_bytes": {
            s: sum(t.delivered_bytes.get(s, 0) for t in built.trackers)
            for s in stations
        },
        "mean_aggregation": {s: mean_aggregation(built, s) for s in stations},
        "rx_packets": {s: testbed.stations[s].rx_packets for s in stations},
        "server_rx_packets": testbed.server.rx_packets,
        "drops": drops_by_layer_reason(built),
        "tcp": [
            {"delivered_bytes": c.delivered_bytes,
             "retransmits": c.sender.retransmits}
            for c in built.tcp_conns
        ],
        "latency_us": latency,
        "packets": packets,
        "goodput_mbps": goodput_bps / 1e6,
        "jain_airtime": jain_index(airtime[s] for s in built.contending),
        "p99_latency_ms": latency["p99"] / 1000.0,
    }
    stats["sim_digest"] = digest(stats)
    return stats
