"""Chaos-recovery harness: kill the campaign, resume, demand identity.

These tests drive :mod:`tests.chaos_harness`, one mode per test so a
failure names its injection.  The parent-signal modes (SIGINT / SIGKILL against
the whole campaign process) spawn a real subprocess and are marked
``slow``-ish but bounded: the chaos spec's cells are ~0.35s each.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tests.chaos_harness import (
    ALL_MODES,
    _pools_usable,
    chaos_cell,
    run_chaos,
)
from repro.runner.spec import derive_seed

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _run_mode(tmp_path: Path, mode: str):
    assert mode in ALL_MODES
    reports = run_chaos(tmp_path, modes=[mode])
    assert len(reports) == 1
    report = reports[0]
    if report.skipped:
        pytest.skip(report.detail)
    assert report.ok, f"{mode}: {report.detail}"
    assert "byte-identical" in report.detail
    return report


class TestChaosModes:
    def test_chaos_cell_is_deterministic(self):
        a = chaos_cell(cell=3, seed=7)
        b = chaos_cell(cell=3, seed=7)
        assert a == b
        assert a["metric"] == derive_seed(7, "chaos-metric", 3) % 10_000

    def test_worker_kill_retried_and_identical(self, tmp_path):
        report = _run_mode(tmp_path, "worker-kill")
        assert "retried" in report.detail

    def test_corrupt_shard_quarantined_and_identical(self, tmp_path):
        _run_mode(tmp_path, "corrupt-shard")

    def test_disk_full_absorbed_by_io_budget(self, tmp_path):
        report = _run_mode(tmp_path, "disk-full")
        assert "ENOSPC" in report.detail

    def test_parent_sigint_exit_130_then_resume(self, tmp_path):
        if not _pools_usable():  # pragma: no cover
            pytest.skip("process pools unavailable on this platform")
        _run_mode(tmp_path, "sigint")

    def test_parent_sigkill_then_resume(self, tmp_path):
        if not _pools_usable():  # pragma: no cover
            pytest.skip("process pools unavailable on this platform")
        _run_mode(tmp_path, "kill9")


# ----------------------------------------------------------------------
# Runner-level graceful interruption (satellite): SIGTERM mid-sweep
# drains in-flight runs, flushes the manifest (with footer), exits 130.
# ----------------------------------------------------------------------
_DRIVER = """
import sys
from repro.runner import Runner, RunSpec

manifest, sentinel = sys.argv[1], sys.argv[2]
runner = Runner(jobs=2, cache=None, graceful_signals=True,
                manifest_path=manifest)
specs = [
    RunSpec.make("tests.test_campaign_chaos:touch_then_sleep",
                 sentinel=sentinel, seconds=60.0, label=f"s{i}")
    for i in range(4)
]
results = runner.map(specs)
phases = [r.error.phase for r in results if not r.ok]
assert runner.interrupted, "runner should report interruption"
assert "interrupted" in phases, phases
sys.exit(130 if runner.interrupted else 0)
"""


def touch_then_sleep(sentinel: str = "", seconds: float = 60.0) -> str:
    """Worker-side helper: prove we started, then block."""
    with open(sentinel, "a") as handle:
        handle.write("started\n")
    time.sleep(seconds)
    return "woke"


class TestRunnerGracefulSignals:
    def test_sigterm_drains_flushes_manifest_and_exits_130(self, tmp_path):
        if not _pools_usable():  # pragma: no cover
            pytest.skip("process pools unavailable on this platform")
        manifest = tmp_path / "manifest.jsonl"
        sentinel = tmp_path / "started"
        env = dict(os.environ)
        repo = Path(__file__).resolve().parents[1]
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo / "src"), str(repo)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", _DRIVER, str(manifest), str(sentinel)],
            env=env, cwd=str(repo), start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and not sentinel.exists():
                if proc.poll() is not None:
                    pytest.fail(f"driver exited early: rc={proc.returncode}")
                time.sleep(0.02)
            assert sentinel.exists(), "workers never started"
            os.kill(proc.pid, signal.SIGTERM)
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert rc == 130

        from repro.runner import read_manifest

        records, complete = read_manifest(str(manifest))
        assert complete, "manifest should carry its terminal footer"
        footer = records[-1]
        assert footer["ev"] == "end"
        assert footer["interrupted"] >= 1
        runs = [r for r in records if r.get("ev") == "run"]
        assert len(runs) == 4  # every spec accounted for, none lost
