"""Tests for the telemetry subsystem (trace bus, metrics, profiling,
summaries) and its zero-cost-when-disabled contract."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.mac_fq import MacFqStructure
from repro.experiments.config import three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.experiments.workloads import saturating_udp_download
from repro.mac.ap import Scheme
from repro.qdisc.pfifo import PfifoQdisc
from repro.sim.engine import Simulator
from repro.telemetry import (
    DEFAULT_STREAM_CAPACITY,
    TRACE_CATEGORIES,
    RunProfiler,
    Telemetry,
    TelemetryConfig,
    TraceBus,
    load_trace,
    summarize_file,
    summarize_records,
)
from repro.telemetry.summarize import format_summary
from repro.validation import catalogue


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
# Metrics: the sampler's series and the --metrics-out file
# ----------------------------------------------------------------------
def _sampled(until_ms: float, **config_kwargs) -> Telemetry:
    """A bare sampler run: one probe counting its own calls."""
    telemetry = Telemetry(TelemetryConfig(**config_kwargs))
    calls = iter(range(1, 1000))
    telemetry.metrics.add_probe(lambda: {"depth": float(next(calls))})
    sim = Simulator()
    telemetry.metrics.start(sim)
    sim.run(until_us=until_ms * 1000.0)
    return telemetry


class TestMetrics:
    def test_series_recording(self):
        telemetry = _sampled(250.0, metrics=True)
        assert telemetry.metrics.snapshot() == {"series": {
            "depth": [[0.0, 1.0], [100_000.0, 2.0], [200_000.0, 3.0]]}}
        summary = telemetry.finish()
        assert summary["metrics"] == telemetry.metrics.snapshot()
        assert "metrics_path" not in summary

    def test_write_json(self, tmp_path):
        path = tmp_path / "m" / "out.json"
        summary = _sampled(50.0, metrics_path=str(path)).finish()
        assert summary["metrics_path"] == str(path)
        assert json.loads(path.read_text())["series"] == {
            "depth": [[0.0, 1.0]]}

    def test_write_json_roundtrip(self, tmp_path):
        """The file is the summary's series plus its streaming snapshot,
        and holds nothing of the removed counter/histogram registry."""
        path = tmp_path / "metrics.json"
        summary = _sampled(150.0, metrics_path=str(path)).finish()
        restored = json.loads(path.read_text())
        assert restored == json.loads(json.dumps(
            {**summary["metrics"], "streaming": summary["streaming"]}))
        assert not {"counters", "gauges", "histograms"} & set(restored)


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
        assert qdisc._em_enqueue is None and qdisc._em_dequeue is None

    def test_untraced_testbed_has_no_telemetry(self):
        testbed = Testbed(three_station_rates(),
                          TestbedOptions(scheme=Scheme.AIRTIME))
        assert testbed.telemetry is None
        assert testbed.finish_telemetry() is None
        assert testbed.ap._em_built is None

    def test_inactive_config_stays_disabled(self):
        testbed = Testbed(
            three_station_rates(),
            TestbedOptions(scheme=Scheme.AIRTIME, telemetry=TelemetryConfig()),
        )
        assert testbed.telemetry is None


# ----------------------------------------------------------------------
# Import boundary
# ----------------------------------------------------------------------
_BOUNDARY_SCRIPT = """
import sys
from repro.experiments.config import three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.experiments.workloads import saturating_udp_download
from repro.telemetry import TelemetryConfig

for config in (None, TelemetryConfig(streaming=True),
               TelemetryConfig(trace=True, spans=True, ledger=True)):
    testbed = Testbed(three_station_rates(),
                      TestbedOptions(seed=1, telemetry=config))
    saturating_udp_download(testbed)
    testbed.run(duration_s=0.3, warmup_s=0.1)
    testbed.finish_telemetry()
print("\\n".join(sorted(sys.modules)))
"""

#: What a simulation never calls: the runner and the pinning code, the
#: CLI / report / registry and the ten experiment modules, the pool
#: machinery the runner brings, and stdlib ``logging``.
_OFF_THE_SIMULATION_PATH = (
    "repro.runner", "repro.validation", "repro.experiments.registry",
    "repro.experiments.cli", "repro.experiments.report",
    "repro.experiments.airtime_udp", "repro.experiments.fairness_index",
    "repro.experiments.latency", "repro.experiments.paper_data",
    "repro.experiments.scaling", "repro.experiments.sparse",
    "repro.experiments.table1", "repro.experiments.tcp_throughput",
    "repro.experiments.voip", "repro.experiments.web",
    "multiprocessing", "concurrent.futures", "logging",
)


def test_building_and_running_a_testbed_loads_only_the_simulator():
    """Untraced, streaming and trace + spans + ledger runs, each
    finished, import none of the modules a simulation never calls."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _BOUNDARY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = [name for name in proc.stdout.split()
              if any(name == off or name.startswith(off + ".")
                     for off in _OFF_THE_SIMULATION_PATH)]
    assert loaded == []


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

    @pytest.mark.parametrize("name", ["tcp/AIRTIME",
                                      "campus-2bss-roam/AIRTIME"])
    def test_summarized_account_equals_the_live_one(self, name, tmp_path):
        """One account, two feeds: what ``summarize_file`` books from the
        written JSONL equals the medium-fed account in every field, bit
        for bit and in first-transmission order."""
        testbed = catalogue.run_traced(name)
        path = testbed.telemetry.trace.write_jsonl(
            str(tmp_path / "run.trace.jsonl"))
        fed = summarize_file(str(path)).account
        live = testbed.telemetry.account
        assert live.airtime_us
        assert vars(fed) == vars(live)
        assert list(fed.airtime_us) == list(live.airtime_us)

    def test_airtime_table_needs_no_tx_records(self):
        """``finish()`` reads the medium-fed account, so a trace that
        leaves out ``tx`` still reports the run's airtime."""
        testbed = _traced_testbed(trace=True, categories=("queue",))
        testbed.run(duration_s=0.5, warmup_s=0.2)
        assert all(r["cat"] != "tx" for r in testbed.telemetry.trace.records)
        airtime = testbed.finish_telemetry()["airtime_us"]
        assert airtime and airtime == dict(testbed.tracker.airtime_us)

    def test_drop_funnel_counts_match_trace(self):
        testbed = _traced_testbed(scheme=Scheme.FQ_CODEL, trace=True)
        testbed.run(duration_s=1.5, warmup_s=0.5)
        summary = summarize_records(testbed.telemetry.trace.records)
        assert sum(summary.drops.values()) == testbed.ap.drops.total

    def test_metrics_sampler_produces_series(self):
        testbed = _traced_testbed(metrics=True)
        testbed.run(duration_s=1.0, warmup_s=0.0)
        sampler = testbed.telemetry.metrics
        assert sampler.samples_taken > 5
        assert "ap_queued_packets" in sampler.series
        assert "airtime_us.0" in sampler.series
        summary = testbed.finish_telemetry()
        assert summary["metrics"]["series"]

    @pytest.mark.parametrize("scheme", [Scheme.FIFO, Scheme.AIRTIME])
    def test_metrics_run_streams_what_a_streaming_run_streams(self, scheme):
        """One path from event to statistic: a metrics run's sojourn
        sketches, drop funnel and queue counts are the streaming run's,
        on the same bounded ring."""
        runs = {}
        for name, config in (("metrics", {"metrics": True}),
                             ("streaming", {"streaming": True})):
            testbed = _traced_testbed(scheme=scheme, **config)
            testbed.run(duration_s=0.4, warmup_s=0.2)
            runs[name] = testbed
        metrics, streaming = (runs[k].finish_telemetry()
                              for k in ("metrics", "streaming"))
        for key in ("sojourn_us", "drops", "queues"):
            assert metrics["streaming"][key] == streaming["streaming"][key]
        assert metrics["streaming"]["sojourn_us"]
        assert set(metrics["metrics"]) == {"series"}
        assert "metrics" not in streaming
        for name in ("effective_categories", "effective_capacity"):
            assert (getattr(runs["metrics"].telemetry.config, name)
                    == getattr(runs["streaming"].telemetry.config, name))
        assert (runs["metrics"].telemetry.config.effective_capacity
                == DEFAULT_STREAM_CAPACITY)

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
