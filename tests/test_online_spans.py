"""Online span stitching: ``Telemetry.finish()`` never decodes the ring.

Spans and the airtime/drop tables are built in-run from trace-bus taps;
these tests hold every traced catalogue entry's ``finish()`` summary to
its pinned digest (recorded on the tree that still stitched post-run
from ``trace.records``) and equal to the offline ``attribute_records``
of the same run's decoded ring, and guard against a consumer quietly
re-materialising the records.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.attribution import attribute_file, attribute_records
from repro.experiments import workloads
from repro.experiments.config import three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.mac.ap import Scheme
from repro.telemetry import TelemetryConfig
from repro.telemetry.ring import TraceRing
from repro.telemetry.trace import TraceBus
from repro.validation import catalogue
from repro.validation.catalogue import ENGINE_PROBE, FULL_TRACE

#: The offline stitch needs the whole trace, which a bounded ring drops.
STITCHED = [name for name in catalogue.traced_names()
            if name != "udp-ring512/AIRTIME"]
SERIES_RUNS = [name for name in catalogue.traced_names()
               if "series" in catalogue.digest_names(name)]


@pytest.mark.parametrize("key", STITCHED)
def test_online_summary_matches_pinned_digest_and_offline_stitch(key):
    testbed = catalogue.run_traced(key)
    summary = testbed.finish_telemetry()
    assert catalogue.finish_digest(summary) == \
        catalogue.load(key)["digests"]["finish"]
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
    testbed = catalogue.run_traced(key)
    testbed.finish_telemetry()
    series = testbed.telemetry.metrics.series
    assert "ap_queued_packets" in series
    assert all(depth >= 1 for _, depth in series[ENGINE_PROBE])
    assert any(name.startswith("sched_deficit_us.") for name in series) \
        is key.endswith("/AIRTIME")
    assert any(name.startswith("driver_occupancy.") for name in series) \
        is key.endswith("/FIFO")
    assert catalogue.series_digest(testbed) == \
        catalogue.load(key)["digests"]["series"]


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
