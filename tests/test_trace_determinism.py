"""Trace determinism: identical traces serial vs parallel, fresh vs cached.

The runner's contract is that ``jobs=N`` output is bit-identical to
``jobs=1``; telemetry must not weaken it.  Trace records include
process-global packet/flow ids, so the testbed restarts those counters
per run — these tests are the regression net for that.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.core.packet import AccessCategory
from repro.experiments import airtime_udp, workloads
from repro.experiments.config import three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.faults import BurstLoss, Churn, FaultSchedule, Interference, RateCrash
from repro.mac.ap import ALL_SCHEMES, APConfig, Scheme
from repro.phy.channel import StationChannel
from repro.runner import ResultCache, Runner
from repro.telemetry import TelemetryConfig
from repro.topology import CampusOptions, CampusTestbed, RoamEvent, campus_topology
from repro.traffic.udp import UdpDownloadFlow
from repro.traffic.voip import VoipFlow

SCHEMES = (Scheme.FIFO, Scheme.AIRTIME)

#: Every fault type at sub-second scale, inside the measurement window.
IMPAIRMENTS = FaultSchedule(
    burst_loss=(BurstLoss(station=2, start_s=0.35, end_s=0.55,
                          mean_good_s=0.05, mean_bad_s=0.02),),
    interference=(Interference(start_s=0.45, end_s=0.55),),
    rate_crash=(RateCrash(station=0, start_s=0.4, end_s=0.6,
                          max_reliable_mcs=1),),
    churn=(Churn(station=1, detach_s=0.55, reattach_s=0.7, mode="flush"),),
)


def _specs(out_dir: Path):
    telemetry = TelemetryConfig(trace_path=str(out_dir),
                                metrics_path=str(out_dir))
    return airtime_udp.specs(SCHEMES, duration_s=0.6, warmup_s=0.3,
                             telemetry=telemetry)


def _trace_texts(out_dir: Path) -> dict:
    return {
        path.name: path.read_text()
        for path in sorted(out_dir.glob("*.trace.jsonl"))
    }


def test_serial_and_parallel_traces_identical(tmp_path):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"

    serial = Runner(jobs=1, cache=None).run_values(_specs(serial_dir))
    parallel = Runner(jobs=2, cache=None).run_values(_specs(parallel_dir))

    serial_traces = _trace_texts(serial_dir)
    parallel_traces = _trace_texts(parallel_dir)
    assert serial_traces  # the runs actually traced something
    assert set(serial_traces) == set(parallel_traces)
    for name in serial_traces:
        assert serial_traces[name] == parallel_traces[name], name

    # The in-result summaries agree too (modulo the output paths).
    for a, b in zip(serial, parallel):
        sa = {k: v for k, v in a.telemetry.items() if not k.endswith("_path")}
        sb = {k: v for k, v in b.telemetry.items() if not k.endswith("_path")}
        assert sa == sb


def test_back_to_back_serial_runs_identical(tmp_path):
    """Packet/flow counters restart per testbed, so a second in-process
    run of the same spec produces a byte-identical trace."""
    first_dir = tmp_path / "first"
    second_dir = tmp_path / "second"
    Runner(jobs=1, cache=None).run_values(_specs(first_dir))
    Runner(jobs=1, cache=None).run_values(_specs(second_dir))
    assert _trace_texts(first_dir) == _trace_texts(second_dir)


def test_cached_run_replays_fresh_telemetry_summary(tmp_path):
    cache = ResultCache(root=str(tmp_path / "cache"))
    out_dir = tmp_path / "traces"

    fresh = Runner(jobs=1, cache=cache).run_values(_specs(out_dir))
    assert cache.misses == len(SCHEMES)

    runner = Runner(jobs=1, cache=cache)
    cached = runner.run_values(_specs(out_dir))
    assert cache.hits == len(SCHEMES)
    assert all(result.metrics.cached for result in runner.history)

    for a, b in zip(fresh, cached):
        assert a.telemetry == b.telemetry
        assert a.airtime_shares == b.airtime_shares


def _impaired_specs(out_dir: Path):
    """Traced, fault-injected, strict specs (category ``fault`` included)."""
    telemetry = TelemetryConfig(trace_path=str(out_dir),
                                metrics_path=str(out_dir))
    return airtime_udp.specs(SCHEMES, duration_s=0.6, warmup_s=0.3,
                             telemetry=telemetry, faults=IMPAIRMENTS,
                             strict=True)


def test_impaired_run_deterministic_serial_parallel_cached(tmp_path):
    """Fault injection must not weaken the bit-identical contract: the
    same impaired spec produces byte-identical traces serial vs parallel,
    and a cached replay returns the identical result."""
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    cache = ResultCache(root=str(tmp_path / "cache"))

    serial = Runner(jobs=1, cache=cache).run_values(_impaired_specs(serial_dir))
    parallel = Runner(jobs=2, cache=None).run_values(
        _impaired_specs(parallel_dir)
    )

    serial_traces = _trace_texts(serial_dir)
    parallel_traces = _trace_texts(parallel_dir)
    assert serial_traces and set(serial_traces) == set(parallel_traces)
    for name in serial_traces:
        assert serial_traces[name] == parallel_traces[name], name
    # The impairments actually fired and were traced.
    assert any('"category": "fault"' in text or '"fault"' in text
               for text in serial_traces.values())

    for a, b in zip(serial, parallel):
        assert a.airtime_shares == b.airtime_shares
        assert a.conservation == b.conservation and a.conservation.ok
        assert a.fault_summary == b.fault_summary
        assert a.fault_summary["detaches"] == 1

    cached = Runner(jobs=1, cache=cache).run_values(_impaired_specs(serial_dir))
    assert cache.hits == len(SCHEMES)
    for a, b in zip(serial, cached):
        assert a == b


def test_ring_backend_traces_byte_identical_to_dict_backend(tmp_path,
                                                            monkeypatch):
    """The columnar ring backend must not change a single trace byte:
    the same traced fig05 specs, re-run with the legacy dict backend
    forced, produce identical ``*.trace.jsonl`` files and telemetry
    summaries (spans + ledger included)."""
    import functools

    import repro.telemetry as telemetry_pkg
    from repro.telemetry.trace import TraceBus

    ring_dir = tmp_path / "ring"
    dict_dir = tmp_path / "dict"

    def _spans_specs(out_dir: Path):
        telemetry = TelemetryConfig(trace_path=str(out_dir), spans=True,
                                    ledger=True)
        return airtime_udp.specs(SCHEMES, duration_s=0.6, warmup_s=0.3,
                                 telemetry=telemetry)

    ring_results = Runner(jobs=1, cache=None).run_values(_spans_specs(ring_dir))
    assert telemetry_pkg.TraceBus().backend == "ring"  # the default

    monkeypatch.setattr(telemetry_pkg, "TraceBus",
                        functools.partial(TraceBus, backend="dict"))
    dict_results = Runner(jobs=1, cache=None).run_values(_spans_specs(dict_dir))

    ring_traces = _trace_texts(ring_dir)
    dict_traces = _trace_texts(dict_dir)
    assert ring_traces and set(ring_traces) == set(dict_traces)
    for name in ring_traces:
        assert ring_traces[name] == dict_traces[name], name

    for a, b in zip(ring_results, dict_results):
        sa = {k: v for k, v in a.telemetry.items() if not k.endswith("_path")}
        sb = {k: v for k, v in b.telemetry.items() if not k.endswith("_path")}
        assert sa == sb
        assert "spans" in sa  # the attribution actually ran


def test_traced_and_untraced_runs_use_distinct_cache_entries(tmp_path):
    cache = ResultCache(root=str(tmp_path / "cache"))
    untraced = airtime_udp.specs(SCHEMES, duration_s=0.6, warmup_s=0.3)

    Runner(jobs=1, cache=cache).run_values(untraced)
    results = Runner(jobs=1, cache=cache).run_values(_specs(tmp_path / "t"))

    # The traced specs were not satisfied from the untraced entries.
    assert cache.misses == 2 * len(SCHEMES)
    assert all(result.telemetry is not None for result in results)


# ----------------------------------------------------------------------
# Pinned trace digests
# ----------------------------------------------------------------------
# The ring-vs-dict test above runs the same instrumentation-site code on
# both backends, so it cannot see a site whose declared field order or
# kind changed.  These digests pin the bytes of the full all-category
# JSONL per scheme; they were recorded on the tree *before* mac_fq /
# CoDel / airtime / VO moved to prebound emitters.  Regenerate (only for
# an intended trace-format change) with:
#   PYTHONPATH=src python -c "import json, tests.test_trace_determinism \
#     as t; print(json.dumps(t.pinned_trace_digests(), indent=1))" \
#     > tests/fixtures/trace_digests.json

#: The two schemes with a qdisc above the legacy driver.
QDISC_SCHEMES = (Scheme.FIFO, Scheme.FQ_CODEL)
FULL_TRACE = TelemetryConfig(trace=True, spans=True, ledger=True)
DIGEST_FIXTURE = Path(__file__).parent / "fixtures" / "trace_digests.json"


def _udp_scenario(testbed):
    workloads.saturating_udp_download(testbed)
    return 0.6, 0.3


def _slow_station_churn(mode: str) -> FaultSchedule:
    """The slow station (the one that owns the driver buffer) leaves at
    40% of ``_udp_scenario``'s 0.9 s and is back at 70%."""
    return FaultSchedule(churn=(
        Churn(station=2, detach_s=0.36, reattach_s=0.63, mode=mode),))


def _tcp_scenario(testbed):
    # layer="qdisc" with station=None, flow_new / flow_reclaim and CoDel
    # state transitions only show up under TCP.
    workloads.tcp_bidir(testbed)
    workloads.add_pings(testbed)
    return 0.7, 0.3


def _voip_scenario(testbed):
    # VO-marked voice over bulk TCP: the AP's unmanaged VO queue
    # (layer="vo") exists only in the qdisc schemes.
    workloads.tcp_download(testbed)
    VoipFlow(testbed.sim, testbed.server, testbed.stations[2],
             ac=AccessCategory.VO).start()
    return 0.4, 0.2


def _qos_scenario(testbed):
    # Saturating BE to every station plus VI and VO streams to station
    # 0: the three things that can give the AP's fill pass work while
    # the BE hardware queue is full -- a station parked on a full VI
    # hardware queue, a non-empty VO ring, and VI arrivals.
    workloads.saturating_udp_download(testbed)
    for ac, rate_bps in ((AccessCategory.VI, 60e6), (AccessCategory.VO, 4e6)):
        UdpDownloadFlow(testbed.sim, testbed.server, testbed.stations[0],
                        rate_bps=rate_bps, ac=ac).start(delay_us=10.0 + ac)
    return 0.5, 0.2


#: name -> (scenario, schemes, TestbedOptions overrides)
PINNED_SCENARIOS = {
    "udp": (_udp_scenario, ALL_SCHEMES, {}),
    "tcp": (_tcp_scenario, ALL_SCHEMES, {}),
    # Churn flush: mac_fq flush, scheduler station_drop / re-enter.
    "udp-impaired": (_udp_scenario, (Scheme.AIRTIME,),
                     {"faults": IMPAIRMENTS}),
    "voip-vo": (_voip_scenario, QDISC_SCHEMES, {}),
    # Recorded on the tree that still had a separate single-AP testbed,
    # for what only that testbed did: strict watchdogs over a fault
    # schedule (passing ``conservation`` / ``ledger_audit`` fault
    # records), per-station rate-dependent channels under rate control,
    # and the periodic sampler's probes.
    "udp-impaired-strict": (_udp_scenario, (Scheme.AIRTIME,), {
        "faults": IMPAIRMENTS, "strict": True,
        "telemetry": dataclasses.replace(FULL_TRACE, ledger_tolerance=0.2),
    }),
    "udp-ratecontrol": (_udp_scenario, (Scheme.AIRTIME,), {
        "ap_config": APConfig(rate_control=True),
        "station_channels": {
            0: StationChannel(max_reliable_mcs=3, step_error=0.5),
        },
    }),
    "udp-metrics": (_udp_scenario, (Scheme.FIFO, Scheme.AIRTIME), {
        "telemetry": dataclasses.replace(FULL_TRACE, metrics=True),
    }),
    # Recorded on the tree whose send_downstream still ran the fill pass
    # and looked the TID up for every packet.
    "udp-qos": (_qos_scenario, (Scheme.AIRTIME,), {}),
    # Recorded on the tree whose AP still branched on the scheme: churn
    # over the qdisc + legacy-driver stack (driver flush, qdisc residue,
    # the VO deques), which no other key reaches.
    "udp-churn-flush": (_udp_scenario, QDISC_SCHEMES,
                        {"faults": _slow_station_churn("flush")}),
    "udp-churn-park": (_udp_scenario, QDISC_SCHEMES,
                       {"faults": _slow_station_churn("park")}),
}


#: Every pinned (scenario name, scheme) run, in fixture order.
PINNED_RUNS = [
    (name, scheme)
    for name, (_, schemes, _) in PINNED_SCENARIOS.items()
    for scheme in schemes
]


def _digest_key(name: str, scheme: Scheme) -> str:
    return f"{name}/{scheme.name}"


def _traced_run(name: str, scheme: Scheme,
                duration_scale: float = 1.0) -> Testbed:
    scenario, _, overrides = PINNED_SCENARIOS[name]
    testbed = Testbed(three_station_rates(), TestbedOptions(
        **{"scheme": scheme, "seed": 1, "telemetry": FULL_TRACE,
           **overrides}))
    duration_s, warmup_s = scenario(testbed)
    testbed.run(duration_s * duration_scale, warmup_s * duration_scale)
    return testbed


def _roam_back_run() -> CampusTestbed:
    """Station 0 roams to the other co-channel cell and back again:
    whatever the home AP remembers about it (TIDs, scheduler state) must
    survive ``remove_station`` + ``add_station``."""
    topo = campus_topology(
        n_bss=2, n_channels=1, stations_per_bss=2,
        roam=(RoamEvent(station=0, at_s=0.25, to_bss=1),
              RoamEvent(station=0, at_s=0.4, to_bss=0)),
    )
    campus = CampusTestbed(topo, CampusOptions(
        scheme=Scheme.AIRTIME, seed=1, telemetry=FULL_TRACE))
    workloads.saturating_udp_download(campus)
    campus.run(0.4, 0.2)
    return campus


ROAM_BACK_KEY = "campus-roam-back/AIRTIME"


def _digest(testbed) -> str:
    return hashlib.sha256(testbed.telemetry.trace.dumps().encode()).hexdigest()


def _trace_digest(name: str, scheme: Scheme) -> str:
    return _digest(_traced_run(name, scheme))


def pinned_trace_digests() -> dict:
    out = {_digest_key(*run): _trace_digest(*run) for run in PINNED_RUNS}
    out[ROAM_BACK_KEY] = _digest(_roam_back_run())
    return out


@pytest.mark.parametrize("name,scheme", PINNED_RUNS,
                         ids=[_digest_key(*run) for run in PINNED_RUNS])
def test_trace_bytes_match_pinned_digest(name, scheme):
    pinned = json.loads(DIGEST_FIXTURE.read_text())
    assert _trace_digest(name, scheme) == pinned[_digest_key(name, scheme)]


def test_roam_away_and_back_trace_matches_pinned_digest():
    campus = _roam_back_run()
    assert [(src, dst) for _, _, src, dst, _ in campus.roam_log] == \
        [(0, 1), (1, 0)]
    pinned = json.loads(DIGEST_FIXTURE.read_text())
    assert _digest(campus) == pinned[ROAM_BACK_KEY]


def test_per_packet_records_never_ride_the_generic_path():
    """Generic ``emit(**fields)`` is for O(1)-per-run markers: doubling
    the duration of a traced Airtime Fig. 5 run must not add a single
    record to the ring's generic shapes."""
    def total_and_generic_records(duration_scale: float):
        testbed = _traced_run("udp", Scheme.AIRTIME, duration_scale)
        ring = testbed.telemetry.trace._ring
        return len(ring), sum(len(shape.times)
                              for shape in ring._generic_shapes.values())

    total_t, generic_t = total_and_generic_records(0.5)
    total_2t, generic_2t = total_and_generic_records(1.0)
    assert total_2t > 1.5 * total_t  # the per-packet volume did scale
    assert generic_2t == generic_t
