"""Run-lifecycle observability: heartbeats, status line, manifest, flight
recorder, and the ring-overflow strict gate.

Everything here runs against real machinery — a real engine drives the
progress hook, real files carry the heartbeats, and the flight-recorder
test induces a real stall-guard violation — but with intervals tuned so
the suite stays fast.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.runner.progress import (
    DEFAULT_INTERVAL_EVENTS,
    ETA_MAX_S,
    Heartbeat,
    HeartbeatWriter,
    ManifestWriter,
    ProgressAggregator,
    read_heartbeats,
    rss_bytes,
)
from repro.sim.engine import Simulator, set_default_progress
from repro.telemetry import flightrec


@pytest.fixture(autouse=True)
def _clean_progress_hook():
    """Never leak the process-wide engine hook between tests."""
    yield
    set_default_progress(None)


def drive(sim: Simulator, events: int) -> None:
    """Execute ``events`` engine events, one per simulated µs."""
    remaining = [events]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule_call(1.0, tick)

    sim.schedule_call(1.0, tick)
    sim.run(until_us=sim.now + events + 1)


# ----------------------------------------------------------------------
# Heartbeat record
# ----------------------------------------------------------------------
class TestHeartbeat:
    def _beat(self, **overrides):
        base = dict(
            label="fig05-airtime-s1", pid=123, beat=4, phase="running",
            t_sim_us=2.5e6, sim_until_us=1e7, events=100_000,
            events_per_sec=50_000.0, wall_s=2.0, eta_s=30.0,
            rss_bytes=64_000_000,
        )
        base.update(overrides)
        return Heartbeat(**base)

    def test_json_roundtrip(self):
        beat = self._beat()
        assert Heartbeat.from_json(beat.to_json()) == beat

    def test_fraction(self):
        assert self._beat().fraction == pytest.approx(0.25)
        assert self._beat(sim_until_us=None).fraction is None
        # Overshoot (engine past the target) clamps to 1.0.
        assert self._beat(t_sim_us=2e7).fraction == 1.0

    def test_rss_probe_returns_positive_on_linux(self):
        assert rss_bytes() > 0


# ----------------------------------------------------------------------
# HeartbeatWriter against a real engine
# ----------------------------------------------------------------------
class TestHeartbeatWriter:
    def test_heartbeats_flow_during_a_run(self, tmp_path):
        writer = HeartbeatWriter(
            str(tmp_path), "unit-run", interval_events=100, min_write_s=0.0
        )
        sim = Simulator()
        writer.arm()
        try:
            drive(sim, 1000)
        finally:
            writer.finish()
        beats = read_heartbeats(str(tmp_path))
        assert len(beats) == 1
        beat = beats[0]
        assert beat.label == "unit-run"
        assert beat.phase == "done"
        assert beat.pid == os.getpid()
        # Initial write + >=1 mid-run write + terminal write.
        assert beat.beat >= 3
        assert beat.events >= 1000
        assert beat.t_sim_us > 0
        assert beat.sim_until_us == pytest.approx(1001.0)

    def test_failed_run_writes_failed_phase(self, tmp_path):
        writer = HeartbeatWriter(
            str(tmp_path), "unit-run", interval_events=100, min_write_s=0.0
        )
        writer.arm()
        writer.finish(failed=True)
        (beat,) = read_heartbeats(str(tmp_path))
        assert beat.phase == "failed"

    def test_wall_throttle_suppresses_writes(self, tmp_path):
        writer = HeartbeatWriter(
            str(tmp_path), "unit-run", interval_events=10,
            min_write_s=3600.0,  # nothing inside the run can pass this
        )
        sim = Simulator()
        writer.arm()
        try:
            drive(sim, 1000)
        finally:
            writer.finish()
        (beat,) = read_heartbeats(str(tmp_path))
        # Only the arm and terminal writes made it through the throttle,
        # yet the terminal beat still carries the hook's last-seen state.
        assert beat.beat == 2
        assert beat.t_sim_us > 0

    def test_retry_overwrites_spool_file(self, tmp_path):
        for attempt in range(2):
            writer = HeartbeatWriter(str(tmp_path), "same-label",
                                     interval_events=100, min_write_s=0.0)
            writer.arm()
            writer.finish(failed=attempt == 0)
        beats = read_heartbeats(str(tmp_path))
        assert len(beats) == 1          # one file per label, latest wins
        assert beats[0].phase == "done"

    def test_first_sample_has_no_eta_later_samples_do(self, tmp_path):
        writer = HeartbeatWriter(
            str(tmp_path), "eta-run", interval_events=100, min_write_s=0.0
        )
        sim = Simulator()
        writer.arm()
        (first,) = read_heartbeats(str(tmp_path))
        assert first.beat == 1
        assert first.eta_s is None          # nothing to extrapolate from
        try:
            drive(sim, 1000)
        finally:
            writer.finish()
        (beat,) = read_heartbeats(str(tmp_path))
        assert beat.beat >= 2
        assert beat.eta_s is not None
        assert 0.0 <= beat.eta_s <= ETA_MAX_S

    def test_absurd_eta_projection_is_clamped(self, tmp_path):
        import time

        from repro.sim.engine import events_processed_total

        writer = HeartbeatWriter(str(tmp_path), "clamp-run")
        writer.spool.mkdir(parents=True, exist_ok=True)
        writer.beat = 1                     # past the first-sample guard
        # 100 s of wall time for 1 µs of simulated progress towards a
        # 1e12 µs target: the raw projection is ~1e14 wall seconds.
        writer._start_wall = time.perf_counter() - 100.0
        writer._events_base = events_processed_total() - 5
        writer._write(t_sim_us=1.0, sim_until_us=1e12, phase="running")
        (beat,) = read_heartbeats(str(tmp_path))
        assert beat.eta_s == ETA_MAX_S

    def test_no_eta_before_any_events_execute(self, tmp_path):
        import time

        writer = HeartbeatWriter(str(tmp_path), "idle-run")
        writer.spool.mkdir(parents=True, exist_ok=True)
        writer.beat = 1
        writer._start_wall = time.perf_counter() - 1.0
        from repro.sim.engine import events_processed_total

        writer._events_base = events_processed_total()  # zero executed
        writer._write(t_sim_us=5.0, sim_until_us=1e6, phase="running")
        (beat,) = read_heartbeats(str(tmp_path))
        assert beat.eta_s is None

    def test_engine_hook_cadence_and_disarm(self):
        calls = []
        set_default_progress(lambda sim, executed: calls.append(executed),
                             interval_events=250)
        sim = Simulator()
        drive(sim, 1000)
        # Every interval crossing, plus one terminal sample as run() exits
        # (short runs below the interval still report final state).
        assert calls == [250, 500, 750, 1000, 1000]
        set_default_progress(None)
        drive(Simulator(), 1000)
        assert calls == [250, 500, 750, 1000, 1000]

    def test_short_run_still_reports_final_state(self):
        seen = []
        set_default_progress(
            lambda sim, executed: seen.append((sim.now, executed)),
            interval_events=1_000_000,
        )
        sim = Simulator()
        drive(sim, 50)
        assert len(seen) == 1
        t_sim, executed = seen[0]
        assert executed == 50 and t_sim > 0

    def test_default_interval_is_sane(self):
        # The hook must stay out of the hot path: one call per couple
        # hundred thousand events, not per event.
        assert DEFAULT_INTERVAL_EVENTS >= 10_000


class TestReadHeartbeats:
    def test_torn_and_foreign_files_are_skipped(self, tmp_path):
        good = Heartbeat(label="a", pid=1, beat=1, phase="running",
                         t_sim_us=1.0, sim_until_us=None, events=1,
                         events_per_sec=1.0, wall_s=1.0, eta_s=None,
                         rss_bytes=0)
        (tmp_path / "a.heartbeat.json").write_text(good.to_json())
        (tmp_path / "b.heartbeat.json").write_text('{"label": "b", trunc')
        (tmp_path / "notes.txt").write_text("not a heartbeat")
        beats = read_heartbeats(str(tmp_path))
        assert [b.label for b in beats] == ["a"]

    def test_missing_spool_is_empty(self, tmp_path):
        assert read_heartbeats(str(tmp_path / "nope")) == []


# ----------------------------------------------------------------------
# Status line rendering (pure)
# ----------------------------------------------------------------------
class TestProgressAggregator:
    def _beat(self, label, phase="running", frac=0.5, eta=10.0, beat=3):
        return Heartbeat(
            label=label, pid=1, beat=beat, phase=phase,
            t_sim_us=frac * 1e7, sim_until_us=1e7, events=1000,
            events_per_sec=40_000.0, wall_s=1.0, eta_s=eta,
            rss_bytes=50_000_000,
        )

    def test_render_counts_and_slowest(self):
        agg = ProgressAggregator("unused", total_specs=4,
                                 stream=io.StringIO())
        line = agg.render([
            self._beat("fast", frac=0.9, eta=2.0),
            self._beat("slow", frac=0.1, eta=45.0),
            self._beat("done-one", phase="done"),
        ])
        assert "[1/4 done, 2 running]" in line
        assert "80k ev/s" in line            # sum over running only
        assert "100 MB rss" in line
        assert "eta 45s" in line             # max over running
        assert "slow 10%" in line            # slowest fraction named

    def test_render_shows_eta_placeholder_until_second_sample(self):
        agg = ProgressAggregator("unused", total_specs=2,
                                 stream=io.StringIO())
        # All running workers are on their first (untrustworthy) sample:
        # the line must say so instead of inventing a number.
        line = agg.render([self._beat("a", eta=500.0, beat=1)])
        assert "eta --" in line and "eta 500s" not in line
        # A worker with no estimate at all also keeps the placeholder.
        line = agg.render([self._beat("a", eta=None, beat=5)])
        assert "eta --" in line

    def test_render_eta_ignores_first_sample_projections(self):
        agg = ProgressAggregator("unused", total_specs=2,
                                 stream=io.StringIO())
        line = agg.render([
            self._beat("wild", eta=9000.0, beat=1),   # first sample: noise
            self._beat("calm", eta=10.0, beat=4),
        ])
        assert "eta 10s" in line and "9000" not in line

    def test_render_counts_cache_hits(self):
        agg = ProgressAggregator("unused", total_specs=10,
                                 stream=io.StringIO())
        agg.note_finished(7)
        assert agg.render([]) == "[7/10 done, 0 running]"

    def test_status_line_goes_to_stream(self, tmp_path):
        stream = io.StringIO()
        agg = ProgressAggregator(str(tmp_path), total_specs=1,
                                 interval_s=0.01, stream=stream).start()
        agg.stop()
        text = stream.getvalue()
        assert "\r" in text and text.endswith("\n")


# ----------------------------------------------------------------------
# Run manifest
# ----------------------------------------------------------------------
class TestManifestWriter:
    def test_sweep_header_and_run_records(self, tmp_path):
        from repro.runner import (
            FailedResult, RunMetrics, RunResult, RunSpec,
        )

        spec_ok = RunSpec.make("repro.experiments.workloads:"
                               "saturating_udp_download", label="run-ok")
        spec_bad = RunSpec.make("repro.experiments.workloads:"
                                "saturating_udp_download", label="run-bad")
        path = tmp_path / "manifest.jsonl"
        manifest = ManifestWriter(str(path)).open(specs=2, mode="serial",
                                                  jobs=1)
        manifest.record_result(RunResult(
            spec=spec_ok, value=1,
            metrics=RunMetrics(wall_s=2.0, events=1000, cached=True,
                               finalize_s=0.5),
        ))
        manifest.record_result(RunResult(
            spec=spec_bad, value=None,
            metrics=RunMetrics(wall_s=1.0, events=10),
            error=FailedResult(spec=spec_bad, phase="timeout",
                               error="exceeded 60s"),
        ))
        manifest.close()

        header, ok, bad, footer = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert header["ev"] == "sweep"
        assert (header["specs"], header["mode"], header["jobs"]) == \
            (2, "serial", 1)
        assert ok["ev"] == "run" and ok["label"] == "run-ok"
        assert ok["ok"] is True and ok["cached"] is True
        assert ok["finalize_s"] == 0.5
        assert bad["ok"] is False
        assert bad["phase"] == "timeout" and "exceeded" in bad["error"]
        assert footer["ev"] == "end"
        assert (footer["runs"], footer["ok"], footer["failed"]) == (2, 1, 1)

    def test_append_mode_stacks_sweeps(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        for _ in range(2):
            ManifestWriter(str(path)).open(specs=0, mode="serial",
                                           jobs=1).close()
        events = [json.loads(line)["ev"]
                  for line in path.read_text().splitlines()]
        assert events == ["sweep", "end", "sweep", "end"]


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_disabled_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(flightrec.FLIGHT_ENV, raising=False)
        assert flightrec.flight_dir() is None
        assert flightrec.dump_active("whatever") is None
        assert flightrec.dump_parent_bundle("l", "timeout", "err") is None

    @pytest.mark.slow
    def test_selftest_dumps_a_triage_bundle(self, tmp_path):
        path = flightrec.selftest(str(tmp_path))
        bundle = json.loads(path.read_text())
        assert bundle["format"] == "repro-flight/1"
        assert bundle["reason"] == "selftest"
        assert bundle["exception"]["type"] == "SimulationError"
        assert "stall" in bundle["exception"]["message"]
        engine = bundle["engine"]
        assert engine["events_processed"] > 0
        assert engine["t_sim_us"] < engine["run_until_us"]
        # The evidence the post-mortem exists for: the ring tail and the
        # online statistics at the moment of death.
        assert len(bundle["trace_tail"]) > 0
        assert bundle["streaming"]["records_seen"] > 0
        assert "watchdog" in bundle

    def test_parent_bundle_for_a_dead_worker(self, tmp_path):
        heartbeat = {"label": "run-x", "phase": "running",
                     "t_sim_us": 1e6, "events": 5000}
        path = flightrec.dump_parent_bundle(
            "run-x", "timeout", "exceeded 60s",
            heartbeat=heartbeat, directory=str(tmp_path),
        )
        bundle = json.loads(path.read_text())
        assert bundle["origin"] == "parent"
        assert bundle["reason"] == "timeout"
        assert bundle["last_heartbeat"]["t_sim_us"] == 1e6

    def test_dump_never_raises(self, tmp_path, monkeypatch):
        # An unwritable flight dir must not mask the original failure.
        monkeypatch.setenv(flightrec.FLIGHT_ENV,
                           str(tmp_path / "file-not-dir"))
        (tmp_path / "file-not-dir").write_text("in the way")

        class Boom:
            pass

        flightrec.register(Boom())
        assert flightrec.dump_active("reason") is None


# ----------------------------------------------------------------------
# Ring overflow: summarize surfaces it, --strict gates on it
# ----------------------------------------------------------------------
@pytest.mark.slow
class TestStrictOverflowGate:
    def _overflowed_trace(self, tmp_path) -> str:
        from repro.experiments.workloads import saturating_udp_download
        from repro.mac.ap import Scheme
        from repro.telemetry.config import TelemetryConfig
        from tests.conftest import make_testbed

        trace_path = str(tmp_path / "trace.jsonl")
        testbed = make_testbed(
            Scheme.AIRTIME,
            telemetry=TelemetryConfig(trace_path=trace_path,
                                      trace_capacity=500),
        )
        saturating_udp_download(testbed)
        testbed.run(duration_s=0.3)
        summary = testbed.finish_telemetry()
        assert summary["trace_dropped"] > 0
        return trace_path

    def test_strict_exit_code_on_overflow(self, tmp_path):
        from repro.experiments.trace_cli import _trace_summarize

        trace_path = self._overflowed_trace(tmp_path)
        header = json.loads(
            open(trace_path).readline()
        )
        assert header["ev"] == "ring_overflow" and header["dropped"] > 0
        assert _trace_summarize([trace_path]) == 0
        assert _trace_summarize([trace_path], strict=True) == 4
