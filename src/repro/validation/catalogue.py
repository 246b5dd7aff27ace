"""The scenario catalogue: every pinned run, one exact pin per scenario.

Each named entry has one JSON pin under ``tests/golden/`` (``udp/AIRTIME``
at ``tests/golden/udp/AIRTIME.json``), made by :func:`pin` from one run:
headline metrics plus, for a traced entry, the sha256 digests of what its
telemetry produces — the trace bytes, the ``trace summarize`` text and
fields, the ``finish()`` summary and the sampler series.  Goldens are
paper-figure scenarios pinned by rounded headline metrics; traced
entries are sub-second scenarios under full telemetry, each reaching a
path the others do not, pinned by their digests and their per-station
ledger shares, delivered packets and drops.

The simulator is deterministic, so ``validate check`` gates on exact
equality.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import percentile
from repro.core.packet import AccessCategory
from repro.experiments import workloads
from repro.experiments.config import three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.faults import BurstLoss, Churn, FaultSchedule, Interference, RateCrash
from repro.mac.ap import ALL_SCHEMES, APConfig, Scheme
from repro.phy.channel import StationChannel
from repro.runner import Runner, RunSpec, execute
from repro.telemetry import TelemetryConfig
from repro.topology import (
    CampusOptions,
    CampusTestbed,
    RoamEvent,
    Topology,
    campus_topology,
)
from repro.traffic.udp import UdpDownloadFlow
from repro.traffic.voip import VoipFlow

__all__ = [
    "ENGINE_PROBE", "FULL_TRACE", "GOLDENS", "IMPAIRMENTS", "TRACED",
    "PinBreach", "PinReport", "check", "default_golden_dir", "diff_pin",
    "digest_names", "finish_digest", "load", "measure", "names", "pin",
    "refresh", "run_traced", "series_digest", "summarize_digests",
    "trace_digest", "traced_names",
]


def default_golden_dir() -> Path:
    """``tests/golden/`` at the repository root."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


# ----------------------------------------------------------------------
# Goldens: rounded headline metrics of paper-figure scenarios
# ----------------------------------------------------------------------
def _round(value: float, places: int = 4) -> float:
    return round(float(value), places)


def _per_station(throughput: Dict, shares: Dict,
                 aggregation: Dict) -> Dict[str, object]:
    return {
        "throughput_mbps": {str(i): _round(v, 2) for i, v in throughput.items()},
        "airtime_share": {str(i): _round(v) for i, v in shares.items()},
        "mean_agg": {str(i): _round(v, 2) for i, v in aggregation.items()},
    }


def snapshot_udp(scheme: Scheme, duration_s: float = 2.0,
                 warmup_s: float = 0.5, seed: int = 1) -> Dict[str, object]:
    """Figure-5 UDP scenario headline metrics for one scheme."""
    from repro.analysis.fairness import jain_index
    from repro.experiments.airtime_udp import run_scheme

    result = run_scheme(scheme, duration_s=duration_s,
                        warmup_s=warmup_s, seed=seed)
    return {
        "scheme": scheme.value,
        "jain_airtime": _round(jain_index(result.airtime_shares.values())),
        "total_mbps": _round(sum(result.throughput_mbps.values()), 2),
        **_per_station(result.throughput_mbps, result.airtime_shares,
                       result.mean_aggregation),
    }


def snapshot_latency(scheme: Scheme, duration_s: float = 2.5,
                     warmup_s: float = 1.0, seed: int = 1) -> Dict[str, object]:
    """Figure-1 ping latency under bulk TCP, fast vs slow stations."""
    from repro.experiments.config import FAST_STATIONS, SLOW_STATION
    from repro.experiments.latency import run_scheme

    result = run_scheme(scheme, duration_s=duration_s,
                        warmup_s=warmup_s, seed=seed)
    fast = [rtt for idx in FAST_STATIONS for rtt in result.rtts_ms.get(idx, [])]
    slow = result.rtts_ms.get(SLOW_STATION, [])
    return {
        "scheme": scheme.value,
        "fast_p95_ms": _round(percentile(fast, 95), 2),
        "fast_median_ms": _round(percentile(fast, 50), 2),
        "slow_p95_ms": _round(percentile(slow, 95), 2),
    }


def snapshot_sparse(sparse_enabled: bool, duration_s: float = 2.5,
                    warmup_s: float = 1.0, seed: int = 1) -> Dict[str, object]:
    """Figure-8 sparse-station ping RTT, optimisation on or off."""
    from repro.experiments.sparse import run_case

    result = run_case("tcp", sparse_enabled, duration_s=duration_s,
                      warmup_s=warmup_s, seed=seed)
    return {
        "sparse_enabled": sparse_enabled,
        "rtt_median_ms": _round(percentile(result.rtts_ms, 50), 2),
        "rtt_p95_ms": _round(percentile(result.rtts_ms, 95), 2),
    }


def snapshot_cell(mcs_indices: Tuple[int, ...], payload_bytes: int = 1500,
                  max_subframes: int = 64, duration_s: float = 1.5,
                  warmup_s: float = 0.5, seed: int = 1) -> Dict[str, object]:
    """One matrix cell under airtime fairness (shares + rates + agg)."""
    from repro.validation.matrix import run_cell

    metrics = run_cell(
        mcs_indices=mcs_indices, payload_bytes=payload_bytes,
        max_subframes=max_subframes, duration_s=duration_s,
        warmup_s=warmup_s, seed=seed,
    )
    return {
        "mcs_indices": list(mcs_indices),
        "jain_airtime": _round(metrics.jain_airtime),
        **_per_station(metrics.throughput_mbps, metrics.airtime_shares,
                       metrics.mean_aggregation),
    }


def snapshot_campus(layout: str, topology: Topology, duration_s: float = 1.5,
                    warmup_s: float = 0.5, seed: int = 1) -> Dict[str, object]:
    """One multi-BSS campus scenario under airtime fairness."""
    from repro.experiments.campus import campus_metrics

    campus = CampusTestbed(
        topology, CampusOptions(scheme=Scheme.AIRTIME, seed=seed)
    )
    flows = workloads.saturating_udp_download(campus)
    window_us = campus.run(duration_s, warmup_s)
    return {**campus_metrics(campus, flows, window_us), "layout": layout}


#: golden name -> (snapshot function, its arguments)
GOLDENS: Dict[str, Tuple[Callable[..., Dict[str, object]], Dict[str, Any]]] = {
    **{f"udp-{s.name.lower()}": (snapshot_udp, {"scheme": s})
       for s in (Scheme.FIFO, Scheme.FQ_CODEL, Scheme.FQ_MAC, Scheme.AIRTIME)},
    **{f"latency-{s.name.lower()}": (snapshot_latency, {"scheme": s})
       for s in (Scheme.FIFO, Scheme.AIRTIME)},
    "sparse-on": (snapshot_sparse, {"sparse_enabled": True}),
    "sparse-off": (snapshot_sparse, {"sparse_enabled": False}),
    "cell-n5-ladder": (snapshot_cell, {"mcs_indices": (2, 4, 7, 9, 12)}),
    "cell-n3-agg8-p300": (snapshot_cell, {
        "mcs_indices": (15, 15, 0), "payload_bytes": 300,
        "max_subframes": 8}),
    # Three cells contending on one channel.
    "campus-3bss-cochannel": (snapshot_campus, {
        "layout": "3bss-cochannel",
        "topology": campus_topology(n_bss=3, n_channels=1,
                                    stations_per_bss=3)}),
    # Four cells on two channels; BSS 0 and 2 share channel 0, so the
    # mid-window roam (flush and reassociate) stays within the channel
    # and both shards keep their packet-conservation closure.
    "campus-4bss-2ch": (snapshot_campus, {
        "layout": "4bss-2ch",
        "topology": campus_topology(
            n_bss=4, n_channels=2, stations_per_bss=3,
            roam=(RoamEvent(station=0, at_s=1.25, to_bss=2),))}),
}


# ----------------------------------------------------------------------
# Traced runs: sub-second scenarios under full telemetry
# ----------------------------------------------------------------------
FULL_TRACE = TelemetryConfig(trace=True, spans=True, ledger=True)

#: Every fault type at sub-second scale, inside the measurement window.
IMPAIRMENTS = FaultSchedule(
    burst_loss=(BurstLoss(station=2, start_s=0.35, end_s=0.55,
                          mean_good_s=0.05, mean_bad_s=0.02),),
    interference=(Interference(start_s=0.45, end_s=0.55),),
    rate_crash=(RateCrash(station=0, start_s=0.4, end_s=0.6,
                          max_reliable_mcs=1),),
    churn=(Churn(station=1, detach_s=0.55, reattach_s=0.7, mode="flush"),),
)

#: The two schemes with a qdisc above the legacy driver.
QDISC_SCHEMES = (Scheme.FIFO, Scheme.FQ_CODEL)
UDP = workloads.saturating_udp_download


def _tcp(testbed) -> None:
    # layer="qdisc" with station=None, flow_new / flow_reclaim and CoDel
    # state transitions only show up under TCP.
    workloads.tcp_bidir(testbed)
    workloads.add_pings(testbed)


def _voip(testbed) -> None:
    # VO-marked voice over bulk TCP: the AP's unmanaged VO queue
    # (layer="vo") exists only in the qdisc schemes.
    workloads.tcp_download(testbed)
    VoipFlow(testbed.sim, testbed.server, testbed.stations[2],
             ac=AccessCategory.VO).start()


def _qos(testbed) -> None:
    # Saturating BE to every station plus VI and VO streams to station
    # 0: the three things that can give the AP's fill pass work while
    # the BE hardware queue is full -- a station parked on a full VI
    # hardware queue, a non-empty VO ring, and VI arrivals.
    workloads.saturating_udp_download(testbed)
    for ac, rate_bps in ((AccessCategory.VI, 60e6), (AccessCategory.VO, 4e6)):
        UdpDownloadFlow(testbed.sim, testbed.server, testbed.stations[0],
                        rate_bps=rate_bps, ac=ac).start(delay_us=10.0 + ac)


def _slow_station_churn(mode: str) -> FaultSchedule:
    """The slow station (the one that owns the driver buffer) leaves at
    40% of a 0.9 s UDP run and is back at 70%."""
    return FaultSchedule(churn=(
        Churn(station=2, detach_s=0.36, reattach_s=0.63, mode=mode),))


def _two_cells(*roam: RoamEvent) -> Topology:
    return campus_topology(n_bss=2, n_channels=1, stations_per_bss=2,
                           roam=roam)


@dataclass(frozen=True)
class Traced:
    """A family of traced runs, one entry ``family/SCHEME`` per scheme.

    ``traffic(testbed)`` runs for ``run_s = (duration_s, warmup_s)`` on
    the three-station Figure-5 cell, or on ``topology``; ``options``
    override the testbed options.  A ``None`` warm-up drives the engine
    directly, so the trace carries no ``measurement_start`` marker.
    """

    traffic: Callable[[Any], object]
    run_s: Tuple[float, Optional[float]] = (0.6, 0.3)
    schemes: Tuple[Scheme, ...] = (Scheme.AIRTIME,)
    options: Dict[str, Any] = field(default_factory=dict)
    topology: Optional[Topology] = None


TRACED: Dict[str, Traced] = {
    "udp": Traced(UDP, schemes=ALL_SCHEMES),
    "tcp": Traced(_tcp, (0.7, 0.3), ALL_SCHEMES),
    # Churn flush: mac_fq flush, scheduler station_drop / re-enter.
    "udp-impaired": Traced(UDP, options={"faults": IMPAIRMENTS}),
    "voip-vo": Traced(_voip, (0.4, 0.2), QDISC_SCHEMES),
    # Strict watchdogs over a fault schedule (passing ``conservation`` /
    # ``ledger_audit`` fault records).
    "udp-impaired-strict": Traced(UDP, options={
        "faults": IMPAIRMENTS, "strict": True,
        "telemetry": dataclasses.replace(FULL_TRACE, ledger_tolerance=0.2),
    }),
    # Per-station rate-dependent channels under rate control.
    "udp-ratecontrol": Traced(UDP, options={
        "ap_config": APConfig(rate_control=True),
        "station_channels": {
            0: StationChannel(max_reliable_mcs=3, step_error=0.5),
        },
    }),
    # The periodic sampler's probes.
    "udp-metrics": Traced(UDP, schemes=(Scheme.FIFO, Scheme.AIRTIME), options={
        "telemetry": dataclasses.replace(FULL_TRACE, metrics=True),
    }),
    "udp-qos": Traced(_qos, (0.5, 0.2)),
    # Churn over the qdisc + legacy-driver stack (driver flush, qdisc
    # residue, the VO deques), which no other entry reaches.
    "udp-churn-flush": Traced(UDP, schemes=QDISC_SCHEMES, options={
        "faults": _slow_station_churn("flush")}),
    "udp-churn-park": Traced(UDP, schemes=QDISC_SCHEMES, options={
        "faults": _slow_station_churn("park")}),
    # Two co-channel cells, station 0 roams mid-window (``bss_of``).
    "campus-2bss-roam": Traced(
        UDP, (0.4, 0.2),
        options={"telemetry": TelemetryConfig(trace=True, spans=True)},
        topology=_two_cells(RoamEvent(station=0, at_s=0.3, to_bss=1))),
    # No marker: every closed span is buffered and replayed into the
    # whole-trace result at ``finish()``.
    "udp-no-marker": Traced(UDP, (0.4, None)),
    # Station 0 roams away and back: whatever the home AP remembers
    # about it (TIDs, scheduler state) must survive ``remove_station``
    # + ``add_station``.
    "campus-roam-back": Traced(UDP, (0.4, 0.2), topology=_two_cells(
        RoamEvent(station=0, at_s=0.25, to_bss=1),
        RoamEvent(station=0, at_s=0.4, to_bss=0))),
    # A bounded ring: the written trace starts with the overflow header.
    "udp-ring512": Traced(UDP, (0.3, 0.1), options={
        "telemetry": dataclasses.replace(FULL_TRACE, trace_capacity=512),
    }),
}


def traced_names() -> List[str]:
    return [f"{family}/{scheme.name}" for family, runs in TRACED.items()
            for scheme in runs.schemes]


def names() -> List[str]:
    """Every catalogue entry, goldens first."""
    return [*GOLDENS, *traced_names()]


def run_traced(name: str, duration_scale: float = 1.0):
    """Build and run traced entry ``name``; returns the testbed with its
    telemetry not yet finished."""
    family, scheme = name.split("/")
    runs = TRACED[family]
    options = {"scheme": Scheme[scheme], "seed": 1, "telemetry": FULL_TRACE,
               **runs.options}
    testbed = (Testbed(three_station_rates(), TestbedOptions(**options))
               if runs.topology is None
               else CampusTestbed(runs.topology, CampusOptions(**options)))
    runs.traffic(testbed)
    duration_s, warmup_s = runs.run_s
    if warmup_s is None:
        testbed.sim.run(until_us=testbed.sim.sec(duration_s * duration_scale))
    else:
        testbed.run(duration_s * duration_scale, warmup_s * duration_scale)
    return testbed


# ----------------------------------------------------------------------
# Digests of what a traced run's telemetry produces
# ----------------------------------------------------------------------
#: The engine's heap depth is sampled like any probe but is not a
#: simulated quantity: a change that needs fewer events per packet moves
#: it without changing the model (``sim_digest`` leaves event counts out
#: for the same reason).  The digests skip it.
ENGINE_PROBE = "sim_heap_len"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digest(testbed) -> str:
    """The full JSONL trace, byte for byte."""
    return _sha(testbed.telemetry.trace.dumps())


def _label(station) -> str:
    return "-" if station is None else str(station)


def _summary_fields(summary) -> dict:
    """Every ``TraceSummary`` field as plain JSON, dict order included."""
    account = summary.account
    shares = account.airtime_shares()
    return {
        "total_records": summary.total_records,
        "t_first_us": summary.t_first_us,
        "t_last_us": summary.t_last_us,
        "measurement_start_us": summary.measurement_start_us,
        "ring_dropped": summary.ring_dropped,
        "by_category": list(summary.by_category.items()),
        "stations": {
            str(station): [*map(account.station(station).get, (
                "transmissions", "airtime_us", "downlink_airtime_us",
                "uplink_airtime_us", "delivered_bytes", "packets")),
                account.mean_aggregation(station), shares[station]]
            for station in sorted(account.airtime_us)
        },
        "drops": {f"{layer}:{reason}": count for (layer, reason), count
                  in sorted(summary.drops.items())},
        "queues": {
            f"{layer}:{_label(station)}": [
                queue.enqueues, queue.dequeues, queue.drops,
                queue.mean_sojourn_us, queue.sojourn_max_us]
            for (layer, station), queue in sorted(
                summary.queues.items(),
                key=lambda item: (item[0][0], _label(item[0][1])))
        },
        "codel_transitions": {
            _label(station): count for station, count in sorted(
                summary.codel_transitions.items(),
                key=lambda item: _label(item[0]))
        },
        "deficit_charged_us": {
            f"{station}:{direction}": us for (station, direction), us
            in sorted(summary.deficit_charged_us.items())
        },
        "scheduler_entries": {
            f"{station}:{lst}": count for (station, lst), count
            in sorted(summary.scheduler_entries.items())
        },
        "fault_events": dict(sorted(summary.fault_events.items())),
        "conservation_ok": summary.conservation_ok,
        "station_bss": {str(station): bss for station, bss
                        in sorted(summary.station_bss.items())},
    }


def summarize_digests(testbed) -> Dict[str, str]:
    """``trace summarize`` of the JSONL file the run writes: its text
    and every field of the summary."""
    from repro.telemetry.summarize import format_summary, summarize_file

    with tempfile.TemporaryDirectory() as directory:
        path = testbed.telemetry.trace.write_jsonl(
            str(Path(directory) / "run.trace.jsonl"))
        summary = summarize_file(str(path))
    return {
        "summarize_text": _sha(format_summary(summary)),
        "summarize_fields": _sha(json.dumps(_summary_fields(summary),
                                            separators=(",", ":"))),
    }


def finish_digest(summary: dict) -> str:
    """The ``finish()`` summary, engine probe left out."""
    metrics = summary.get("metrics")
    if metrics is not None:
        summary = {**summary, "metrics": {
            kind: {name: value for name, value in table.items()
                   if name != ENGINE_PROBE}
            for kind, table in metrics.items()
        }}
    return _sha(json.dumps(summary, sort_keys=True, separators=(",", ":")))


def series_digest(testbed) -> str:
    """The sampler's series in probe (insertion) order, which the sorted
    ``snapshot()`` inside the summary hides."""
    series = testbed.telemetry.metrics.series
    return _sha(json.dumps([[name, points] for name, points in series.items()
                            if name != ENGINE_PROBE], separators=(",", ":")))


def digest_names(name: str) -> Tuple[str, ...]:
    """The digests entry ``name``'s telemetry produces (none for a golden)."""
    if name in GOLDENS:
        return ()
    options = TRACED[name.split("/")[0]].options
    metrics = options.get("telemetry", FULL_TRACE).metrics_enabled
    return ("trace", "summarize_text", "summarize_fields", "finish",
            *(("series",) if metrics else ()))


def measure(testbed) -> Dict[str, Any]:
    """The pin of a traced run.  Trace and summarize are read before
    ``finish_telemetry()``, the headline from its summary."""
    digests = {"trace": trace_digest(testbed), **summarize_digests(testbed)}
    summary = testbed.finish_telemetry()
    digests["finish"] = finish_digest(summary)
    if testbed.telemetry.metrics is not None:
        digests["series"] = series_digest(testbed)
    pinned: Dict[str, Any] = {"drops": summary["drops"], "digests": digests}
    ledger = summary.get("ledger", {}).get("stations")
    if ledger is not None:
        pinned["ledger_share"] = {
            station: _round(row["share"]) for station, row in ledger.items()}
        pinned["delivered"] = {
            station: row["delivered_packets"]
            for station, row in ledger.items()}
    return pinned


def pin(name: str) -> Dict[str, Any]:
    """Run entry ``name`` and return its pin (the ``RunSpec`` target)."""
    if name in GOLDENS:
        snapshot, kwargs = GOLDENS[name]
        return snapshot(**kwargs)
    return measure(run_traced(name))


# ----------------------------------------------------------------------
# The exact gate
# ----------------------------------------------------------------------
def _flatten(prefix: str, value: object, out: Dict[str, object]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    else:
        out[prefix] = value


@dataclass(frozen=True)
class PinBreach:
    scenario: str
    key: str
    expected: object
    actual: object

    def __str__(self) -> str:
        return f"{self.scenario}: {self.key}: {self.expected} → {self.actual}"


def diff_pin(scenario: str, expected: Dict[str, object],
             actual: Dict[str, object]) -> List[PinBreach]:
    """Every key whose value differs, is missing or is new (empty = clean)."""
    old: Dict[str, object] = {}
    new: Dict[str, object] = {}
    _flatten("", expected, old)
    _flatten("", actual, new)
    return [PinBreach(scenario, key, old.get(key, "<absent>"),
                      new.get(key, "<absent>"))
            for key in sorted(old.keys() | new.keys())
            if key not in old or key not in new or old[key] != new[key]]


@dataclass(frozen=True)
class PinReport:
    checked: List[str]
    breaches: List[PinBreach]
    missing: List[str]

    @property
    def clean(self) -> bool:
        return not self.breaches and not self.missing

    def format(self) -> str:
        lines = [f"MISSING pin for {name} (run `validate refresh --only "
                 f"{name}`)" for name in self.missing]
        moved: Dict[str, List[str]] = {}
        for breach in self.breaches:
            if breach.key.startswith("digests."):
                moved.setdefault(breach.scenario, []).append(
                    breach.key.removeprefix("digests."))
            else:
                lines.append(f"BREACH {breach}")
        lines += [f"BREACH {name}: digests moved: {', '.join(keys)}"
                  for name, keys in moved.items()]
        state = "clean" if self.clean else \
            f"{len(self.breaches)} breach(es), {len(self.missing)} missing"
        lines.append(f"pins: {len(self.checked)} scenario(s) checked, {state}")
        return "\n".join(lines)


def _select(only: Optional[Sequence[str]]) -> List[str]:
    unknown = set(only or ()) - set(names())
    if unknown:
        raise ValueError(f"unknown golden scenario(s): {sorted(unknown)}")
    return [name for name in names() if only is None or name in only]


def _run(selected: List[str],
         runner: Optional[Runner]) -> Dict[str, Dict[str, Any]]:
    specs = [RunSpec.make("repro.validation.catalogue:pin",
                          label=f"pin/{name}", name=name)
             for name in selected]
    results = execute(specs, runner)
    for name, result in zip(selected, results):
        if result is None:
            raise RuntimeError(f"scenario {name!r} failed to run")
    return dict(zip(selected, results))


def load(name: str, golden_dir: Optional[Path] = None) -> Dict[str, Any]:
    """The committed pin of entry ``name``."""
    path = (golden_dir or default_golden_dir()) / f"{name}.json"
    return json.loads(path.read_text())


def refresh(only: Optional[Sequence[str]] = None,
            runner: Optional[Runner] = None,
            golden_dir: Optional[Path] = None) -> List[str]:
    """Re-run entries and overwrite their pins; returns the names."""
    golden_dir = golden_dir or default_golden_dir()
    pins = _run(_select(only), runner)
    for name, value in pins.items():
        path = golden_dir / f"{name}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(value, indent=2, sort_keys=True) + "\n")
    return list(pins)


def check(only: Optional[Sequence[str]] = None,
          runner: Optional[Runner] = None,
          golden_dir: Optional[Path] = None) -> PinReport:
    """Re-run entries and compare them with their pins, exactly."""
    golden_dir = golden_dir or default_golden_dir()
    selected = _select(only)
    missing = [name for name in selected
               if not (golden_dir / f"{name}.json").exists()]
    pins = _run([name for name in selected if name not in missing], runner)
    breaches = [breach for name, actual in pins.items()
                for breach in diff_pin(name, load(name, golden_dir), actual)]
    return PinReport(checked=list(pins), breaches=breaches, missing=missing)
