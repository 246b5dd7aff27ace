"""Tests for the experiment CLI."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import report
from repro.experiments.cli import main
from repro.experiments.registry import EXPERIMENTS

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_list_exits_zero(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for row in EXPERIMENTS:
        assert row.id in out


def test_unknown_experiment_rejected(capsys):
    assert main(["nonsense"]) == 2
    assert "unknown" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--duration", "nan"), ("--duration", "inf"), ("--duration", "0"),
    ("--duration", "-1"), ("--warmup", "-0.5"), ("--warmup", "nan"),
])
def test_bad_window_is_a_usage_error_before_any_run(
        flag, value, capsys, five_second_alarm):
    """``--duration nan`` used to hang; 0 / negative windows used to
    print an all-zero table with exit 0."""
    with pytest.raises(SystemExit) as exit_info:
        main(["fig05", flag, value, "--no-cache", "--jobs", "1"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err and "Figure 5" not in captured.out


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_report_rejects_a_bad_duration_scale(scale, capsys, five_second_alarm):
    """Scale 0 used to write 15 failed checks and exit 0."""
    with pytest.raises(SystemExit) as exit_info:
        report.main(["--duration-scale", scale, "--no-cache", "--jobs", "1"])
    assert exit_info.value.code == 2
    assert "--duration-scale" in capsys.readouterr().err


def test_traces_written_is_logged_only_when_something_was_traced(
        tmp_path, capsys):
    short = ["--duration", "0.3", "--warmup", "0.1", "--no-cache",
             "--jobs", "1"]
    untraced = tmp_path / "untraced"
    assert main(["campus", "--trace", str(untraced), *short]) == 0
    err = capsys.readouterr().err
    assert "running it untraced" in err
    assert "traces written" not in err
    assert not untraced.exists()

    traced = tmp_path / "traced"
    assert main(["fig05", "--trace", str(traced), *short]) == 0
    assert f"traces written under {traced}/" in capsys.readouterr().err
    assert list(traced.glob("*.trace.jsonl"))


def test_faults_experiment_runs_scaled_down(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["faults", "--duration", "2", "--warmup", "0.5",
                 "--strict"]) == 0
    out = capsys.readouterr().out
    assert "Fault tolerance" in out
    assert "min Jain" in out


def test_bad_fault_schedule_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"meteor_strike": []}')
    assert main(["fig05", "--faults", str(path), "--no-cache"]) == 2
    assert "fault schedule" in capsys.readouterr().err


def test_single_experiment_runs_scaled_down(capsys):
    assert main(["fig05", "--duration", "2", "--warmup", "1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5" in out
    assert "Airtime fair FQ" in out


# ----------------------------------------------------------------------
# Exit-code contract, exercised end to end through a real subprocess:
# 0 clean, 2 usage error, 3 partial failure (some runs produced no
# value), 4 golden-gate breach.
# ----------------------------------------------------------------------
def _run_cli(args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", *args],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
        timeout=600,
    )


@pytest.mark.validation
class TestExitCodeContract:
    def test_exit_0_on_clean_run(self, tmp_path):
        proc = _run_cli(["fig05", "--duration", "1", "--warmup", "0.2"],
                        tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "Figure 5" in proc.stdout

    def test_exit_2_on_unknown_experiment(self, tmp_path):
        proc = _run_cli(["nonsense"], tmp_path)
        assert proc.returncode == 2
        assert "unknown" in proc.stderr

    def test_exit_3_on_partial_failure(self, tmp_path):
        # A churn event for a station that does not exist makes those
        # runs raise; the CLI reports the surviving runs and exits 3.
        schedule = tmp_path / "faults.json"
        schedule.write_text(json.dumps({
            "churn": [{"station": 7, "detach_s": 0.2}],
        }))
        proc = _run_cli(["fig05", "--duration", "1", "--warmup", "0.2",
                         "--faults", str(schedule)], tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert "Failed runs" in proc.stdout

    @pytest.mark.slow
    def test_exit_4_on_golden_breach(self, tmp_path):
        golden_dir = tmp_path / "golden"
        proc = _run_cli(["validate", "refresh", "--only", "udp-airtime",
                         "--golden", str(golden_dir)], tmp_path)
        assert proc.returncode == 0, proc.stderr

        path = golden_dir / "udp-airtime.json"
        snap = json.loads(path.read_text())
        snap["total_mbps"] = snap["total_mbps"] * 2
        path.write_text(json.dumps(snap))

        # Same cache dir: the check replays the cached run, so only the
        # diff (and the breach) differs from the refresh.
        proc = _run_cli(["validate", "check", "--only", "udp-airtime",
                         "--golden", str(golden_dir)], tmp_path)
        assert proc.returncode == 4, proc.stderr
        assert "BREACH" in proc.stdout

    def test_validate_rejects_unknown_scenario(self, tmp_path):
        proc = _run_cli(["validate", "check", "--only", "no-such"],
                        tmp_path)
        assert proc.returncode == 2
        assert "unknown golden" in proc.stderr


def test_spans_without_trace_dir_stitches_in_memory(tmp_path):
    """``--spans`` alone turns on in-memory tracing: spans are stitched
    from taps, so there is no file to require."""
    from repro.experiments.cli import _telemetry_from_args

    args = argparse.Namespace(trace=None, trace_categories=None,
                              metrics_out=None, spans=True, ledger=False,
                              streaming=False)
    telemetry = _telemetry_from_args(args)
    assert telemetry.trace and telemetry.spans
    assert telemetry.trace_path is None
    # With --streaming the hooks are already live and the ring stays
    # bounded.
    args.streaming = True
    assert _telemetry_from_args(args).effective_capacity is not None

    done = _run_cli(["fig05", "--duration", "0.4", "--warmup", "0.2",
                     "--no-cache", "--spans", "--ledger", "--strict"],
                    tmp_path)
    assert done.returncode == 0, done.stderr
    assert "needs a trace" not in done.stderr
    assert "Figure 5" in done.stdout
    assert not list(tmp_path.glob("**/*.trace.jsonl"))
