"""Tests for the telemetry subsystem (trace bus, metrics, profiling,
summaries) and its zero-cost-when-disabled contract."""

from __future__ import annotations

import json

import pytest

from repro.core.mac_fq import MacFqStructure
from repro.experiments.config import three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.experiments.workloads import saturating_udp_download
from repro.mac.ap import Scheme
from repro.qdisc.pfifo import PfifoQdisc
from repro.telemetry import (
    TRACE_CATEGORIES,
    Histogram,
    MetricsRegistry,
    RunProfiler,
    Telemetry,
    TelemetryConfig,
    TraceBus,
    load_trace,
    summarize_file,
    summarize_records,
)
from repro.telemetry.summarize import format_summary


# ----------------------------------------------------------------------
# TraceBus
# ----------------------------------------------------------------------
class TestTraceBus:
    def test_emit_and_record_shape(self):
        bus = TraceBus()
        channel = bus.channel("queue")
        channel.emit(12.5, "enqueue", station=1, flow=7)
        assert bus.records == [
            {"t": 12.5, "cat": "queue", "ev": "enqueue", "station": 1, "flow": 7}
        ]

    def test_category_filter_returns_none_channel(self):
        bus = TraceBus(categories=("tx",))
        assert bus.channel("queue") is None
        assert bus.channel("tx") is not None

    def test_meta_never_filtered(self):
        bus = TraceBus(categories=("tx",))
        assert bus.channel("meta") is not None

    def test_jsonl_roundtrip(self, tmp_path):
        bus = TraceBus()
        bus.channel("tx").emit(1.0, "tx", station=0)
        bus.channel("meta").emit(2.0, "measurement_start")
        path = bus.write_jsonl(str(tmp_path / "sub" / "t.jsonl"))
        assert load_trace(str(path)) == bus.records

    def test_dumps_is_valid_jsonl(self):
        bus = TraceBus()
        bus.channel("hw").emit(3.0, "push", depth=2)
        lines = bus.dumps().strip().splitlines()
        assert [json.loads(line) for line in lines] == bus.records


# ----------------------------------------------------------------------
# TelemetryConfig
# ----------------------------------------------------------------------
class TestTelemetryConfig:
    def test_inactive_by_default(self):
        config = TelemetryConfig()
        assert not config.active

    def test_paths_imply_enablement(self):
        assert TelemetryConfig(trace_path="x.jsonl").trace_enabled
        assert TelemetryConfig(metrics_path="x.json").metrics_enabled

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown trace categories"):
            TelemetryConfig(trace=True, categories=("nope",))

    def test_for_run_expands_directories(self):
        base = TelemetryConfig(trace_path="out", metrics_path="out")
        derived = base.for_run("airtime_udp/Airtime fair FQ")
        assert derived.trace_path.endswith(
            "airtime_udp_Airtime_fair_FQ.trace.jsonl")
        assert derived.metrics_path.endswith(
            "airtime_udp_Airtime_fair_FQ.metrics.json")

    def test_all_categories_known(self):
        TelemetryConfig(trace=True, categories=TRACE_CATEGORIES)  # no raise

    def test_spans_require_tracing(self):
        with pytest.raises(ValueError, match="spans requires tracing"):
            TelemetryConfig(spans=True)
        TelemetryConfig(trace=True, spans=True)  # no raise

    def test_ledger_alone_activates_telemetry(self):
        config = TelemetryConfig(ledger=True)
        assert config.active
        assert not config.trace_enabled

    def test_negative_ledger_tolerance_rejected(self):
        with pytest.raises(ValueError, match="ledger_tolerance"):
            TelemetryConfig(ledger=True, ledger_tolerance=-0.1)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(2.5)
        for value in (1.0, 2.0, 4.0, 100.0):
            registry.histogram("h").observe(value)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 2.5
        assert snap["histograms"]["h"]["count"] == 4
        assert snap["histograms"]["h"]["max"] == 100.0

    def test_histogram_quantiles_bracket_samples(self):
        hist = Histogram("h")
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.quantile(0.0) <= hist.quantile(0.5) <= hist.quantile(1.0)
        assert hist.quantile(1.0) == 100.0

    def test_histogram_empty_quantile_is_zero(self):
        hist = Histogram("h")
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(0.5) == 0.0
        assert hist.quantile(1.0) == 0.0
        assert hist.summary() == {"count": 0}

    def test_histogram_single_sample_exact_at_endpoints(self):
        hist = Histogram("h")
        hist.observe(7.0)
        assert hist.quantile(0.0) == 7.0
        assert hist.quantile(1.0) == 7.0
        assert hist.quantile(0.5) <= 8.0  # bucket upper bound, clamped

    def test_histogram_quantile_rejects_out_of_range(self):
        hist = Histogram("h")
        hist.observe(1.0)
        with pytest.raises(ValueError, match="within"):
            hist.quantile(-0.1)
        with pytest.raises(ValueError, match="within"):
            hist.quantile(1.1)

    def test_histogram_q0_returns_min_not_bucket_bound(self):
        hist = Histogram("h")
        for value in (3.0, 100.0):
            hist.observe(value)
        assert hist.quantile(0.0) == 3.0

    def test_write_json_roundtrip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("runs").inc(3)
        registry.gauge("depth").set(4.5)
        for value in (1.0, 8.0, 64.0):
            registry.histogram("sojourn").observe(value)
        registry.record_sample("depth", 10.0, 2.0)
        path = registry.write_json(str(tmp_path / "metrics.json"))
        restored = json.loads(path.read_text())
        assert restored == json.loads(json.dumps(registry.snapshot()))
        assert restored["counters"]["runs"] == 3
        assert restored["histograms"]["sojourn"]["count"] == 3
        assert restored["series"]["depth"] == [[10.0, 2.0]]

    def test_series_recording(self):
        registry = MetricsRegistry()
        registry.record_sample("depth", 0.0, 1.0)
        registry.record_sample("depth", 100.0, 3.0)
        assert registry.snapshot()["series"]["depth"] == [[0.0, 1.0],
                                                          [100.0, 3.0]]

    def test_write_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        path = registry.write_json(str(tmp_path / "m" / "out.json"))
        assert json.loads(path.read_text())["counters"]["c"] == 1


# ----------------------------------------------------------------------
# RunProfiler
# ----------------------------------------------------------------------
class TestRunProfiler:
    def test_wall_and_events(self):
        with RunProfiler() as profiler:
            testbed = Testbed(three_station_rates(),
                              TestbedOptions(scheme=Scheme.FIFO))
            saturating_udp_download(testbed)
            testbed.sim.run(until_us=50_000)
        assert profiler.wall_s > 0
        assert profiler.events > 0
        assert profiler.events_per_sec > 0
        assert profiler.peak_heap_bytes is None

    def test_heap_tracking_optional(self):
        with RunProfiler(track_heap=True) as profiler:
            _ = [bytearray(1024) for _ in range(100)]
        assert profiler.peak_heap_bytes is not None
        assert profiler.peak_heap_bytes > 0


# ----------------------------------------------------------------------
# Zero-cost defaults
# ----------------------------------------------------------------------
class TestZeroCostWhenDisabled:
    def test_untraced_components_hold_none_channels(self):
        fq = MacFqStructure(lambda: 0.0)
        assert fq._em_enqueue is None and fq._em_codel_state is None
        qdisc = PfifoQdisc()
        assert qdisc._tr_queue is None and qdisc._sojourn_hist is None

    def test_untraced_testbed_has_no_telemetry(self):
        testbed = Testbed(three_station_rates(),
                          TestbedOptions(scheme=Scheme.AIRTIME))
        assert testbed.telemetry is None
        assert testbed.sampler is None
        assert testbed.finish_telemetry() is None
        assert testbed.ap._em_built is None

    def test_inactive_config_stays_disabled(self):
        testbed = Testbed(
            three_station_rates(),
            TestbedOptions(scheme=Scheme.AIRTIME, telemetry=TelemetryConfig()),
        )
        assert testbed.telemetry is None


# ----------------------------------------------------------------------
# End-to-end traced runs
# ----------------------------------------------------------------------
def _traced_testbed(scheme=Scheme.AIRTIME, **config_kwargs):
    config = TelemetryConfig(**config_kwargs)
    testbed = Testbed(three_station_rates(),
                      TestbedOptions(scheme=scheme, telemetry=config))
    saturating_udp_download(testbed)
    return testbed


class TestTracedRun:
    def test_trace_covers_every_category(self):
        testbed = _traced_testbed(trace=True)
        testbed.run(duration_s=1.0, warmup_s=0.5)
        seen = {record["cat"] for record in testbed.telemetry.trace.records}
        # Legacy-driver categories don't apply to the airtime stack.
        assert {"queue", "codel", "agg", "sched", "hw", "tx", "meta"} <= seen

    def test_fifo_stack_traces_driver_and_qdisc(self):
        testbed = _traced_testbed(scheme=Scheme.FIFO, trace=True)
        testbed.run(duration_s=1.0, warmup_s=0.5)
        records = testbed.telemetry.trace.records
        assert any(r["cat"] == "driver" and r["ev"] == "pull" for r in records)
        assert any(r.get("layer") == "qdisc" and r["ev"] == "enqueue"
                   for r in records)

    def test_category_filter_limits_records(self):
        testbed = _traced_testbed(trace=True, categories=("tx",))
        testbed.run(duration_s=1.0, warmup_s=0.5)
        categories = {r["cat"] for r in testbed.telemetry.trace.records}
        assert categories <= {"tx", "meta"}

    def test_summary_airtime_matches_tracker(self):
        """Acceptance criterion: per-station airtime computed from the
        trace matches the AirtimeTracker's shares to within 0.1%."""
        testbed = _traced_testbed(trace=True)
        testbed.run(duration_s=2.0, warmup_s=1.0)
        stations = sorted(testbed.stations)
        shares = testbed.tracker.airtime_shares(stations)
        summary = summarize_records(testbed.telemetry.trace.records)
        trace_shares = summary.airtime_shares()
        for station in stations:
            assert trace_shares[station] == pytest.approx(
                shares[station], abs=1e-3)

    def test_summary_airtime_totals_match_tracker_exactly(self):
        testbed = _traced_testbed(trace=True)
        testbed.run(duration_s=1.0, warmup_s=0.5)
        summary = summarize_records(testbed.telemetry.trace.records)
        for station, airtime in testbed.tracker.airtime_us.items():
            assert summary.stations[station].airtime_us == pytest.approx(
                airtime, rel=1e-9)

    def test_drop_funnel_counts_match_trace(self):
        testbed = _traced_testbed(scheme=Scheme.FQ_CODEL, trace=True)
        testbed.run(duration_s=1.5, warmup_s=0.5)
        summary = summarize_records(testbed.telemetry.trace.records)
        assert sum(summary.drops.values()) == testbed.ap.drops.total

    def test_metrics_sampler_produces_series(self):
        testbed = _traced_testbed(metrics=True)
        testbed.run(duration_s=1.0, warmup_s=0.0)
        registry = testbed.telemetry.metrics
        assert testbed.sampler.samples_taken > 5
        assert "ap_queued_packets" in registry.series
        assert "airtime_us.0" in registry.series
        summary = testbed.finish_telemetry()
        assert summary["metrics"]["series"]

    def test_finish_writes_files(self, tmp_path):
        testbed = _traced_testbed(
            trace_path=str(tmp_path / "run.trace.jsonl"),
            metrics_path=str(tmp_path / "run.metrics.json"),
        )
        testbed.run(duration_s=0.5, warmup_s=0.0)
        summary = testbed.finish_telemetry()
        records = load_trace(summary["trace_path"])
        assert len(records) == summary["trace_records"]
        assert json.loads(
            open(summary["metrics_path"]).read())["series"]

    def test_format_summary_renders(self, tmp_path):
        testbed = _traced_testbed(
            trace_path=str(tmp_path / "run.trace.jsonl"))
        testbed.run(duration_s=0.5, warmup_s=0.2)
        summary_dict = testbed.finish_telemetry()
        text = format_summary(summarize_file(summary_dict["trace_path"]),
                              title="run")
        assert "Per-station transmissions" in text
        assert "records" in text


# ----------------------------------------------------------------------
# Fault-category summaries
# ----------------------------------------------------------------------
class TestFaultSummary:
    def test_summary_counts_fault_events(self):
        records = [
            {"t": 1.0, "cat": "fault", "ev": "burst_start", "station": 0},
            {"t": 2.0, "cat": "fault", "ev": "burst_start", "station": 1},
            {"t": 3.0, "cat": "fault", "ev": "conservation", "ok": True},
        ]
        summary = summarize_records(records)
        assert summary.by_category["fault"] == 3
        assert summary.fault_events == {"burst_start": 2, "conservation": 1}
        assert summary.conservation_ok == [True]

    def test_format_summary_renders_fault_section(self):
        records = [
            {"t": 1.0, "cat": "fault", "ev": "rate_crash", "station": 2},
            {"t": 2.0, "cat": "fault", "ev": "conservation", "ok": False},
        ]
        text = format_summary(summarize_records(records))
        assert "Fault-injection events:" in text
        assert "rate_crash" in text
        assert "conservation audit: VIOLATED" in text
        assert "fault=2" in text  # per-category counts line
