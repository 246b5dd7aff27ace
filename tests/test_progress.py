"""The run record: manifest schema, ordering, failure evidence, the
``--progress`` line, and the ring-overflow strict gate.

The failure cases run real machinery: a real stall-guard livelock inside
a pool worker, a real ``SIGKILL`` of a sweeping process.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runner import (
    FailedResult, ManifestWriter, ResultCache, RunMetrics, RunResult,
    RunSpec, Runner, code_fingerprint, read_manifest,
)
from repro.telemetry import flightrec

REPO = Path(__file__).resolve().parents[1]


def kill_self() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _quick(value: int) -> RunSpec:
    return RunSpec.make("tests.test_runner_faults:quick", value=value,
                        label=f"quick-{value}")


def _livelock(seed: int = 1) -> RunSpec:
    return RunSpec.make("tests.conftest:stall_guard_livelock", seed=seed,
                        label="livelock")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# ----------------------------------------------------------------------
# Run manifest
# ----------------------------------------------------------------------
class TestManifestWriter:
    def test_sweep_header_and_run_records(self, tmp_path):
        spec_ok = RunSpec.make("repro.experiments.workloads:"
                               "saturating_udp_download", label="run-ok")
        spec_bad = RunSpec.make("repro.experiments.workloads:"
                                "saturating_udp_download", label="run-bad",
                                seed=3)
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
                               error="exceeded 60s", attempts=2),
        ))
        manifest.close()

        header, ok, bad, footer = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert header["ev"] == "sweep"
        assert (header["specs"], header["mode"], header["jobs"]) == \
            (2, "serial", 1)
        # The code fingerprint every cache key of the sweep covers.
        assert header["code"] == code_fingerprint()
        assert ok["ev"] == "run" and ok["label"] == "run-ok"
        assert ok["ok"] is True and ok["cached"] is True
        assert ok["finalize_s"] == 0.5
        # The digest names the run's ResultCache entry.
        assert ok["digest"] == spec_ok.digest() and ok["seed"] is None
        assert bad["ok"] is False and bad["seed"] == 3
        assert bad["phase"] == "timeout" and "exceeded" in bad["error"]
        assert bad["attempts"] == 2
        assert "traceback" not in bad and "evidence" not in bad
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
# Records written by the Runner
# ----------------------------------------------------------------------
class TestRunRecord:
    @pytest.mark.slow
    def test_evidence_crosses_the_pool_boundary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # reach the pool
        path = tmp_path / "manifest.jsonl"
        runner = Runner(jobs=2, manifest_path=str(path))
        results = runner.map([_livelock(), _quick(3)])
        assert runner.used_pool
        assert results[0].error.phase == "error" and results[1].ok

        records, complete = read_manifest(str(path))
        assert complete
        header, failed, sibling, footer = records
        assert header["ev"] == "sweep" and footer["ev"] == "end"
        assert [failed["label"], sibling["label"]] == ["livelock", "quick-3"]
        assert sibling["ok"] is True
        assert failed["error"].startswith("SimulationError")
        assert "stall" in failed["error"] and failed["attempts"] == 1
        assert "Traceback" in failed["traceback"]
        evidence = failed["evidence"]
        assert evidence["engine"]["events_processed"] > 0
        assert evidence["engine"]["t_sim_us"] < evidence["engine"]["run_until_us"]
        # The evidence the record exists for: the ring tail and the
        # online statistics at the moment of death.
        assert len(evidence["trace_tail"]) > 0
        assert evidence["streaming"]["records_seen"] > 0
        assert "stall_violations" in evidence["watchdog"]

    def test_crash_record_has_phase_and_attempts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # reach the pool
        path = tmp_path / "manifest.jsonl"
        runner = Runner(jobs=2, retries=0, manifest_path=str(path))
        runner.map([RunSpec.make("tests.test_runner_faults:die",
                                 label="dies"), _quick(1)])
        records, complete = read_manifest(str(path))
        crash = records[1]
        assert complete and crash["label"] == "dies"
        assert (crash["phase"], crash["attempts"]) == ("crash", 1)
        assert "worker process died" in crash["error"]
        assert "evidence" not in crash

    def test_killed_sweep_keeps_the_finished_records(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        driver = (
            "import sys\n"
            "from repro.runner import Runner, RunSpec\n"
            "specs = [RunSpec.make('tests.test_runner_faults:quick', value=v,"
            " label=f'good-{v}') for v in (1, 2)]\n"
            "specs.append(RunSpec.make('tests.test_progress:kill_self',"
            " label='killer'))\n"
            "Runner(jobs=1, manifest_path=sys.argv[1]).map(specs)\n"
        )
        proc = subprocess.run([sys.executable, "-c", driver, str(path)],
                              env=_env(), cwd=str(REPO), timeout=120)
        assert proc.returncode == -signal.SIGKILL

        records, complete = read_manifest(str(path))
        assert not complete
        assert [r["ev"] for r in records] == ["sweep", "run", "run"]
        assert [r["label"] for r in records[1:]] == ["good-1", "good-2"]
        assert all(r["ok"] for r in records[1:])

        summary = subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", "trace",
             "summarize", str(path)],
            env=_env(), cwd=str(REPO), capture_output=True, text=True,
            timeout=120)
        assert summary.returncode == 0
        assert "2 run record(s)" in summary.stdout
        assert "truncated" in summary.stderr


# ----------------------------------------------------------------------
# --progress
# ----------------------------------------------------------------------
class TestProgressLine:
    def test_status_line_reaches_the_stream(self, capsys):
        Runner(jobs=1, progress=True).map([_quick(1), _quick(2)])
        err = capsys.readouterr().err
        draws = err.split("\r")[1:]
        # One draw up front, then one per finished run; the final state
        # is left on its own line.
        assert len(draws) == 3 and err.endswith("\n")
        assert draws[0].startswith("[0/2 done, 0 failed]")
        assert draws[1].startswith("[1/2 done, 0 failed] quick-1 ")
        assert draws[-1].startswith("[2/2 done, 0 failed] quick-2 ")

    def test_status_line_counts_cache_hits(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        Runner(jobs=1, cache=cache).map([_quick(1)])
        capsys.readouterr()
        Runner(jobs=1, cache=cache, progress=True).map(
            [_quick(1), _quick(2)])
        err = capsys.readouterr().err
        draws = err.split("\r")[1:]
        # The cache hit is counted from the first draw; only the
        # executed run redraws the line.
        assert draws[0].startswith("[1/2 done, 0 failed]")
        assert draws[-1].startswith("[2/2 done, 0 failed] quick-2 ")
        assert len(draws) == 2 and err.endswith("\n")


# ----------------------------------------------------------------------
# Failure evidence never masks the failure
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_dump_never_raises(self):
        class Boom:
            pass

        testbed = Boom()
        flightrec.register(testbed)
        try:
            assert "unavailable" in flightrec.evidence()
        finally:
            flightrec.register(None)
        assert flightrec.evidence() is None


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
