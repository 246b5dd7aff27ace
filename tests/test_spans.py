"""Packet-lifecycle span reconstruction and latency attribution.

Covers the streaming join (synthetic traces with known answers), the
end-to-end acceptance criteria on real traced runs (zero unmatched
joins, telescoping segment sums, open spans == resident packets), and
the regression diff used by ``repro trace diff`` / ``benchmarks/gate.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.attribution import (
    Attribution,
    StationAttribution,
    attribute_file,
    attribute_records,
    diff_airtime_shares,
    diff_attributions,
    format_waterfall,
)
from repro.experiments.config import SLOW_STATION, three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.experiments.workloads import saturating_udp_download
from repro.mac.ap import ALL_SCHEMES, Scheme
from repro.telemetry import TelemetryConfig
from repro.telemetry.spans import collect_spans, iter_trace_file


_RUNS: dict = {}


def _traced_run(scheme):
    """One traced saturating-UDP run per scheme, shared across tests."""
    if scheme not in _RUNS:
        testbed = Testbed(
            three_station_rates(),
            TestbedOptions(
                scheme=scheme,
                telemetry=TelemetryConfig(trace=True),
            ),
        )
        saturating_udp_download(testbed)
        testbed.run(duration_s=1.5, warmup_s=0.5)
        _RUNS[scheme] = testbed
    return _RUNS[scheme]


def _rec(t, cat, ev, **fields):
    return {"t": t, "cat": cat, "ev": ev, **fields}


def _lifecycle_records():
    """A single packet going through every legacy-path stage."""
    return [
        _rec(0.0, "queue", "enqueue", layer="qdisc", station=0, flow=1, pid=1),
        _rec(10.0, "queue", "dequeue", layer="qdisc", station=0, pid=1),
        _rec(15.0, "driver", "dequeue", station=0, pid=1),
        _rec(20.0, "agg", "built", agg=5, station=0, pids=[1]),
        _rec(30.0, "hw", "pop", agg=5),
        _rec(40.0, "agg", "tx_done", agg=5, station=0, ok=True),
    ]


# ----------------------------------------------------------------------
# Synthetic traces with known answers
# ----------------------------------------------------------------------
class TestSpanJoin:
    def test_full_lifecycle_segments(self):
        spans, collector = collect_spans(_lifecycle_records())
        assert collector.unmatched == 0
        (span,) = spans
        assert span.outcome == "delivered"
        assert span.station == 0
        assert span.agg_seq == 5
        assert span.segments == {
            "qdisc": 10.0, "driver": 5.0, "assembly": 5.0,
            "hw": 10.0, "air": 10.0,
        }
        assert span.total_us == 40.0

    def test_segments_telescope_to_total(self):
        spans, _ = collect_spans(_lifecycle_records())
        (span,) = spans
        assert sum(span.segments.values()) == span.total_us

    def test_mac_layer_enqueue_uses_mac_segment(self):
        records = [
            _rec(0.0, "queue", "enqueue", layer="mac", station=1, pid=7),
            _rec(8.0, "queue", "dequeue", layer="mac", station=1, pid=7),
            _rec(9.0, "agg", "built", agg=1, station=1, pids=[7]),
            _rec(12.0, "hw", "pop", agg=1),
            _rec(20.0, "agg", "tx_done", agg=1, station=1, ok=True),
        ]
        spans, collector = collect_spans(records)
        (span,) = spans
        assert collector.unmatched == 0
        assert span.segments == {
            "mac": 8.0, "assembly": 1.0, "hw": 3.0, "air": 8.0,
        }

    def test_retry_pop_does_not_restart_air_segment(self):
        records = [
            _rec(0.0, "queue", "enqueue", layer="mac", station=0, pid=1),
            _rec(1.0, "queue", "dequeue", layer="mac", station=0, pid=1),
            _rec(2.0, "agg", "built", agg=9, station=0, pids=[1]),
            _rec(3.0, "hw", "pop", agg=9),
            # failed TX, requeued, popped again — still the same air wait
            _rec(50.0, "hw", "pop", agg=9),
            _rec(90.0, "agg", "tx_done", agg=9, station=0, ok=True),
        ]
        spans, collector = collect_spans(records)
        (span,) = spans
        assert collector.unmatched == 0
        assert span.segments["air"] == 87.0  # 3.0 -> 90.0, one segment

    def test_aggregate_closes_all_members(self):
        records = [
            _rec(0.0, "queue", "enqueue", layer="mac", station=0, pid=1),
            _rec(0.5, "queue", "enqueue", layer="mac", station=0, pid=2),
            _rec(1.0, "queue", "dequeue", layer="mac", station=0, pid=1),
            _rec(1.0, "queue", "dequeue", layer="mac", station=0, pid=2),
            _rec(2.0, "agg", "built", agg=3, station=0, pids=[1, 2]),
            _rec(3.0, "hw", "pop", agg=3),
            _rec(9.0, "agg", "tx_done", agg=3, station=0, ok=True),
        ]
        spans, _ = collect_spans(records)
        delivered = [s for s in spans if s.outcome == "delivered"]
        assert sorted(s.pid for s in delivered) == [1, 2]
        assert all(s.t_end == 9.0 for s in delivered)

    def test_drop_closes_span_with_layer_and_reason(self):
        records = [
            _rec(0.0, "queue", "enqueue", layer="qdisc", station=2, pid=4),
            _rec(6.0, "queue", "drop", layer="qdisc", station=2, pid=4,
                 reason="overlimit"),
        ]
        spans, collector = collect_spans(records)
        (span,) = spans
        assert span.outcome == "dropped"
        assert span.drop_layer == "qdisc"
        assert span.drop_reason == "overlimit"
        assert span.total_us == 6.0
        assert collector.pre_enqueue_drops == 0

    def test_drop_without_enqueue_counts_pre_enqueue(self):
        records = [
            _rec(5.0, "queue", "drop", layer="qdisc", station=0, pid=11,
                 reason="tail"),
        ]
        spans, collector = collect_spans(records)
        assert collector.pre_enqueue_drops == 1
        assert collector.unmatched == 0
        (span,) = spans
        assert span.outcome == "dropped" and span.total_us == 0.0

    def test_dequeue_without_enqueue_is_unmatched(self):
        records = [
            _rec(5.0, "queue", "dequeue", layer="qdisc", station=0, pid=1),
        ]
        _, collector = collect_spans(records)
        assert collector.unmatched == 1

    def test_failed_tx_keeps_span_open(self):
        records = [
            _rec(0.0, "queue", "enqueue", layer="mac", station=0, pid=1),
            _rec(1.0, "queue", "dequeue", layer="mac", station=0, pid=1),
            _rec(2.0, "agg", "built", agg=1, station=0, pids=[1]),
            _rec(3.0, "hw", "pop", agg=1),
            _rec(9.0, "agg", "tx_done", agg=1, station=0, ok=False),
        ]
        spans, _ = collect_spans(records)
        (span,) = spans
        assert span.outcome == "open"

    def test_window_membership_is_close_time(self):
        """Spans belong to the window their *latency was experienced* in:
        a packet enqueued during warm-up but delivered in the window
        counts; one delivered before the marker does not."""
        records = [
            _rec(0.0, "queue", "enqueue", layer="mac", station=0, pid=1),
            _rec(0.5, "queue", "enqueue", layer="mac", station=0, pid=2),
            _rec(1.0, "queue", "dequeue", layer="mac", station=0, pid=1),
            _rec(2.0, "agg", "built", agg=1, station=0, pids=[1]),
            _rec(3.0, "hw", "pop", agg=1),
            _rec(10.0, "agg", "tx_done", agg=1, station=0, ok=True),
            _rec(15.0, "meta", "measurement_start"),
            _rec(16.0, "queue", "dequeue", layer="mac", station=0, pid=2),
            _rec(17.0, "agg", "built", agg=2, station=0, pids=[2]),
            _rec(18.0, "hw", "pop", agg=2),
            _rec(30.0, "agg", "tx_done", agg=2, station=0, ok=True),
        ]
        spans, collector = collect_spans(records)
        by_pid = {s.pid: s for s in spans}
        assert collector.window_start_us == 15.0
        assert not by_pid[1].in_window
        assert by_pid[2].in_window
        attribution = attribute_records(records)
        assert attribution.windowed
        assert attribution.delivered == 1  # only the in-window delivery

    def test_duplicate_enqueue_flags_unmatched(self):
        records = [
            _rec(0.0, "queue", "enqueue", layer="mac", station=0, pid=1),
            _rec(1.0, "queue", "enqueue", layer="mac", station=0, pid=1),
        ]
        _, collector = collect_spans(records)
        assert collector.unmatched == 1


# ----------------------------------------------------------------------
# Real traced runs: the acceptance criteria
# ----------------------------------------------------------------------
class TestTracedRunSpans:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES,
                             ids=lambda s: s.value)
    def test_zero_unmatched_and_telescoping(self, scheme):
        testbed = _traced_run(scheme)
        spans, collector = collect_spans(testbed.telemetry.trace.records)
        assert collector.unmatched == 0
        closed = [s for s in spans if s.outcome != "open"]
        assert closed, "run produced no closed spans"
        for span in closed:
            assert sum(span.segments.values()) == pytest.approx(
                span.total_us, abs=1.0)  # within 1 µs of end-to-end sojourn

    @pytest.mark.parametrize("scheme", ALL_SCHEMES,
                             ids=lambda s: s.value)
    def test_open_spans_equal_resident_packets(self, scheme):
        testbed = _traced_run(scheme)
        spans, _ = collect_spans(testbed.telemetry.trace.records)
        open_spans = sum(1 for s in spans if s.outcome == "open")
        resident = (testbed.ap.resident_packets()
                    + testbed.medium.inflight_downlink_packets())
        assert open_spans == resident

    def test_streamed_file_matches_in_memory(self, tmp_path):
        testbed = _traced_run(Scheme.FIFO)
        records = testbed.telemetry.trace.records
        path = testbed.telemetry.trace.write_jsonl(
            str(tmp_path / "run.trace.jsonl"))
        streamed = attribute_records(iter_trace_file(str(path)))
        in_memory = attribute_records(records)
        assert streamed.to_dict() == in_memory.to_dict()
        assert attribute_file(str(path)).to_dict() == in_memory.to_dict()

    def test_fifo_latency_attributed_to_qdisc(self):
        """The paper's Figure 2 story: under FIFO the sojourn is the
        bloated qdisc, and the slow station also waits in the driver."""
        testbed = _traced_run(Scheme.FIFO)
        attribution = attribute_records(testbed.telemetry.trace.records)
        fast = attribution.stations[0]
        assert fast.delivered > 0
        assert (fast.segments["qdisc"].mean_us
                > 0.8 * fast.total.mean_us)
        slow = attribution.stations[SLOW_STATION]
        assert (slow.segments["driver"].mean_us
                > fast.segments["driver"].mean_us)

    def test_waterfall_renders(self):
        testbed = _traced_run(Scheme.FIFO)
        attribution = attribute_records(testbed.telemetry.trace.records)
        text = format_waterfall(attribution, title="fifo")
        assert "# fifo" in text
        assert "station 0" in text
        assert "qdisc" in text

    def test_spans_summary_in_telemetry_finish(self):
        config = TelemetryConfig(trace=True, spans=True)
        testbed = Testbed(
            three_station_rates(),
            TestbedOptions(scheme=Scheme.AIRTIME, telemetry=config),
        )
        saturating_udp_download(testbed)
        testbed.run(duration_s=0.5, warmup_s=0.2)
        summary = testbed.finish_telemetry()
        attribution = Attribution.from_dict(summary["spans"])
        assert attribution.unmatched == 0
        assert attribution.delivered > 0


# ----------------------------------------------------------------------
# Regression diff
# ----------------------------------------------------------------------
class TestDiff:
    def _attribution(self):
        testbed = _traced_run(Scheme.FQ_MAC)
        return attribute_records(testbed.telemetry.trace.records)

    def test_self_diff_is_empty(self):
        attribution = self._attribution()
        assert diff_attributions(attribution, attribution) == []

    def test_roundtripped_diff_is_empty(self):
        """Serialisation must not perturb the stats (gate compares a
        stored baseline against a fresh run)."""
        attribution = self._attribution()
        restored = Attribution.from_dict(
            json.loads(json.dumps(attribution.to_dict())))
        assert diff_attributions(attribution, restored) == []

    def test_perturbed_diff_reports_breaches(self):
        attribution = self._attribution()
        perturbed = Attribution.from_dict(attribution.to_dict())
        station = perturbed.stations[0]
        station.total.total_us *= 2.0  # mean doubles: a +100% regression
        breaches = diff_attributions(attribution, perturbed)
        assert breaches
        assert any("station 0 total mean" in b for b in breaches)

    def test_missing_station_is_a_breach(self):
        attribution = self._attribution()
        smaller = Attribution.from_dict(attribution.to_dict())
        del smaller.stations[0]
        smaller_breaches = diff_attributions(attribution, smaller)
        assert any("no delivered packets" in b for b in smaller_breaches)

    def test_drop_only_station_is_not_a_breach(self):
        """The stationless '-' entry (qdisc drops before the station is
        known) has no latency on either side; a self-diff of a trace
        containing one must still be clean."""
        attribution = self._attribution()
        attribution.stations[-1] = StationAttribution(dropped=17)
        assert diff_attributions(attribution, attribution) == []
        one_sided = Attribution.from_dict(attribution.to_dict())
        del one_sided.stations[-1]
        assert diff_attributions(attribution, one_sided) == []

    def test_share_diff(self):
        old = {0: 0.33, 1: 0.33, 2: 0.34}
        assert diff_airtime_shares(old, dict(old)) == []
        new = {0: 0.20, 1: 0.33, 2: 0.47}
        breaches = diff_airtime_shares(old, new)
        assert len(breaches) == 2

    def test_noise_floor_suppresses_small_absolute_changes(self):
        old = Attribution.from_dict({
            "stations": {"0": {
                "delivered": 1, "dropped": 0,
                "total": {"count": 1, "total_us": 2.0, "min_us": 2.0,
                          "max_us": 2.0, "bins": {"1": 1}},
                "segments": {},
            }},
            "delivered": 1, "dropped": 0,
        })
        new = Attribution.from_dict(old.to_dict())
        new.stations[0].total.total_us = 6.0  # 2 µs -> 6 µs jitter
        assert diff_attributions(old, new) == []
