"""Online span stitching: ``Telemetry.finish()`` never decodes the ring.

Spans and the airtime/drop tables are built in-run from trace-bus taps;
these tests pin the ``finish()`` summary bytes recorded on the tree that
still stitched post-run from ``trace.records``, hold the online result
equal to the offline ``attribute_records`` of the same run's decoded
ring, and guard against a consumer quietly re-materialising the records.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.attribution import attribute_file, attribute_records
from repro.experiments import workloads
from repro.experiments.config import three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.mac.ap import Scheme
from repro.telemetry import TelemetryConfig
from repro.telemetry.ring import TraceRing
from repro.telemetry.trace import TraceBus
from repro.topology import (
    CampusOptions,
    CampusTestbed,
    RoamEvent,
    campus_topology,
)

from .test_trace_determinism import (
    FULL_TRACE,
    PINNED_RUNS,
    ROAM_BACK_KEY,
    _digest_key,
    _roam_back_run,
    _traced_run,
)

# Recorded on the parent of the online-stitching change; the two
# ``udp-metrics/*`` summaries re-recorded when metrics runs began to
# carry the streaming snapshot in place of the counter/histogram
# registry (their ``#series`` keys did not move).  Regenerate (only for
# an intended summary-format change) with:
#   PYTHONPATH=src python -c "import json, tests.test_online_spans as t; \
#     print(json.dumps(t.pinned_finish_digests(), indent=1))" \
#     > tests/fixtures/finish_digests.json
DIGEST_FIXTURE = Path(__file__).parent / "fixtures" / "finish_digests.json"


def _campus_roam_run() -> CampusTestbed:
    """Two co-channel cells, station 0 roams mid-window (``bss_of``)."""
    topo = campus_topology(
        n_bss=2, n_channels=1, stations_per_bss=2,
        roam=(RoamEvent(station=0, at_s=0.3, to_bss=1),),
    )
    campus = CampusTestbed(topo, CampusOptions(
        scheme=Scheme.AIRTIME, seed=1,
        telemetry=TelemetryConfig(trace=True, spans=True)))
    workloads.saturating_udp_download(campus)
    campus.run(0.4, 0.2)
    return campus


def _no_marker_run() -> Testbed:
    """The engine driven directly: no warm-up and no
    ``measurement_start`` marker, so every closed span is buffered and
    replayed into the whole-trace result at ``finish()``."""
    testbed = Testbed(three_station_rates(), TestbedOptions(
        scheme=Scheme.AIRTIME, seed=1, telemetry=FULL_TRACE))
    workloads.saturating_udp_download(testbed)
    testbed.sim.run(until_us=testbed.sim.sec(0.4))
    return testbed


#: fixture key -> zero-argument run factory.
RUNS = {
    **{_digest_key(name, scheme):
       (lambda name=name, scheme=scheme: _traced_run(name, scheme))
       for name, scheme in PINNED_RUNS},
    "campus-2bss-roam/AIRTIME": _campus_roam_run,
    "udp-no-marker/AIRTIME": _no_marker_run,
    ROAM_BACK_KEY: _roam_back_run,
}

#: The engine's heap depth is sampled like any probe but is not a
#: simulated quantity: a change that needs fewer events per packet moves
#: it without changing the model (``sim_digest`` leaves event counts out
#: for the same reason).  The digests skip it; it is asserted on its own.
ENGINE_PROBE = "sim_heap_len"


def _canonical_digest(summary: dict) -> str:
    metrics = summary.get("metrics")
    if metrics is not None:
        summary = {**summary, "metrics": {
            kind: {name: value for name, value in table.items()
                   if name != ENGINE_PROBE}
            for kind, table in metrics.items()
        }}
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: Metrics runs also pin the sampler's series in probe (insertion)
#: order, which the sorted ``snapshot()`` inside the summary hides.
SERIES_RUNS = [key for key in RUNS if key.startswith("udp-metrics/")]


def _series_digest(testbed) -> str:
    series = testbed.telemetry.metrics.series
    text = json.dumps([[name, points] for name, points in series.items()
                       if name != ENGINE_PROBE],
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def pinned_finish_digests() -> dict:
    out = {}
    for key, run in RUNS.items():
        testbed = run()
        out[key] = _canonical_digest(testbed.finish_telemetry())
        if key in SERIES_RUNS:
            out[key + "#series"] = _series_digest(testbed)
    return out


@pytest.mark.parametrize("key", list(RUNS))
def test_online_summary_matches_pinned_digest_and_offline_stitch(key):
    testbed = RUNS[key]()
    summary = testbed.finish_telemetry()
    pinned = json.loads(DIGEST_FIXTURE.read_text())
    assert _canonical_digest(summary) == pinned[key]
    # Same run, stitched offline from the decoded ring: one join, one
    # windowing rule, two front-ends.
    offline = attribute_records(testbed.telemetry.trace.records)
    assert summary["spans"] == offline.to_dict()
    assert offline.unmatched == 0
    assert offline.windowed is (key != "udp-no-marker/AIRTIME")
    if key.startswith("campus"):
        assert set(offline.bss_of.values()) == {0, 1}


@pytest.mark.parametrize("key", SERIES_RUNS)
def test_sampler_series_match_pinned_digest(key):
    testbed = RUNS[key]()
    testbed.finish_telemetry()
    series = testbed.telemetry.metrics.series
    assert "ap_queued_packets" in series
    assert all(depth >= 1 for _, depth in series[ENGINE_PROBE])
    assert any(name.startswith("sched_deficit_us.") for name in series) \
        is key.endswith("/AIRTIME")
    assert any(name.startswith("driver_occupancy.") for name in series) \
        is key.endswith("/FIFO")
    pinned = json.loads(DIGEST_FIXTURE.read_text())
    assert _series_digest(testbed) == pinned[key + "#series"]


# ----------------------------------------------------------------------
# No-decode guard
# ----------------------------------------------------------------------
def _fig5(config: TelemetryConfig) -> Testbed:
    testbed = Testbed(three_station_rates(), TestbedOptions(
        scheme=Scheme.AIRTIME, seed=1, telemetry=config))
    workloads.saturating_udp_download(testbed)
    testbed.run(0.3, 0.1)
    return testbed


def test_finish_never_decodes_the_ring(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("finish() decoded the trace ring")

    for name in ("records", "iter_records", "tail"):
        monkeypatch.setattr(TraceRing, name, refuse)
    summary = _fig5(FULL_TRACE).finish_telemetry()
    assert summary["spans"]["delivered"] > 0
    assert summary["spans"]["unmatched"] == 0
    assert summary["airtime_us"] and summary["ledger"]["audit"]["ok"]
    assert summary["trace_records"] > 0


def test_trace_path_decodes_the_ring_exactly_once(monkeypatch, tmp_path):
    decodes = []
    iter_records = TraceRing.iter_records

    def counted(self):
        decodes.append("iter_records")
        return iter_records(self)

    def refuse(self, *args, **kwargs):
        raise AssertionError("finish() materialised the record list")

    monkeypatch.setattr(TraceRing, "iter_records", counted)
    monkeypatch.setattr(TraceRing, "records", refuse)
    monkeypatch.setattr(TraceRing, "tail", refuse)
    path = tmp_path / "run.trace.jsonl"
    config = dataclasses.replace(FULL_TRACE, trace_path=str(path))
    summary = _fig5(config).finish_telemetry()
    assert decodes == ["iter_records"]
    monkeypatch.undo()
    assert summary["spans"] == attribute_file(str(path)).to_dict()


# ----------------------------------------------------------------------
# Spans no longer need the whole trace retained
# ----------------------------------------------------------------------
def test_bounded_ring_yields_the_same_spans():
    unbounded = _fig5(FULL_TRACE)
    bounded = _fig5(dataclasses.replace(FULL_TRACE, trace_capacity=512))
    full = unbounded.finish_telemetry()
    tail = bounded.finish_telemetry()
    assert tail["trace_dropped"] > 0
    assert len(bounded.telemetry.trace) < len(unbounded.telemetry.trace)
    assert tail["spans"] == full["spans"]
    assert tail["airtime_us"] == full["airtime_us"]
    assert tail["drops"] == full["drops"]


def test_streaming_with_spans_bounds_the_ring():
    config = TelemetryConfig(streaming=True, spans=True)
    # Stitching reads taps, not retained records: the streaming bound
    # applies, but the agg/hw/driver sites must stay live.
    assert config.effective_capacity is not None
    assert config.effective_categories == ()
    summary = _fig5(config).finish_telemetry()
    assert summary["spans"] == _fig5(FULL_TRACE).finish_telemetry()["spans"]


# ----------------------------------------------------------------------
# The tap binding every consumer shares
# ----------------------------------------------------------------------
class TestBindPositional:
    FIELDS = (("layer", "c", "mac"), ("station", "o"), ("flow", "q"),
              ("pid", "q"))

    def test_picks_positionals_constants_and_defaults_by_name(self):
        bus = TraceBus()
        seen = []
        bus.add_tap(
            "queue", "enqueue", lambda *args: seen.append(args),
            {"pid": None, "layer": "qdisc", "station": None, "reason": "?"})
        emit = bus.channel("queue").emitter("enqueue", self.FIELDS)
        emit(5.0, 2, 77, 1001)
        assert seen == [(5.0, 1001, "mac", 2, "?")]

    def test_every_consumer_of_a_shape_sees_every_record_in_order(self):
        bus = TraceBus()
        calls = []
        for tag in ("first", "second"):
            bus.add_tap(
                "queue", "drop",
                lambda t, pid, tag=tag: calls.append((tag, t, pid)),
                {"pid": None})
        channel = bus.channel("queue")
        emit = channel.emitter("drop", (("layer", "s"), ("pid", "q")))
        emit(1.0, "mac", 7)
        channel.emit(2.0, "drop", pid=8)  # generic sites bind lazily
        assert calls == [("first", 1.0, 7), ("second", 1.0, 7),
                         ("first", 2.0, 8), ("second", 2.0, 8)]
        assert [r["pid"] for r in bus.records] == [7, 8]
