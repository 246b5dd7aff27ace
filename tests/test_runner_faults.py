"""Runner fault tolerance: failed workers, timeouts, signals, and cache
integrity.

Helper functions live at module top level so pool workers (forked with
this module already imported) can unpickle references to them.
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runner import FailedResult, ResultCache, RunSpec, Runner
from repro.runner import executor as executor_mod


def quick(value: int = 1) -> int:
    return value * 2


def boom() -> None:
    raise ValueError("deterministic failure")


def die(delay_s: float = 0.2) -> None:
    time.sleep(delay_s)
    os._exit(42)  # hard crash: no exception makes it back to the parent


def sleep_for(seconds: float = 60.0) -> str:
    time.sleep(seconds)
    return "woke up"


def touch_then_sleep(sentinel: str = "", seconds: float = 60.0) -> str:
    """Prove the worker started, then block."""
    with open(sentinel, "a") as handle:
        handle.write("started\n")
    time.sleep(seconds)
    return "woke"


def _spec(fn: str, **kwargs) -> RunSpec:
    return RunSpec.make(f"tests.test_runner_faults:{fn}", **kwargs)


@pytest.fixture(autouse=True)
def _two_cpus(monkeypatch):
    """A ``jobs=2`` runner here must reach the pool: on one CPU it would
    run serially, and a crashing spec would take pytest down with it."""
    monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 2)


# ----------------------------------------------------------------------
# Failure phases: error / timeout / crash
# ----------------------------------------------------------------------
class TestFailurePhases:
    def test_deterministic_error_not_retried(self):
        runner = Runner(jobs=1, cache=None, retries=2)
        results = runner.map([_spec("boom"), _spec("quick", value=3)])
        assert not results[0].ok
        failure = results[0].error
        assert failure.phase == "error"
        assert failure.attempts == 1  # same seed, same exception: no retry
        assert "deterministic failure" in failure.error
        assert "ValueError" in failure.traceback
        assert results[1].ok and results[1].value == 6
        assert runner.failures == [failure]

    def test_error_in_pool_reports_without_killing_siblings(self):
        runner = Runner(jobs=2, cache=None)
        results = runner.map(
            [_spec("quick", value=2), _spec("boom"), _spec("quick", value=4)]
        )
        assert [r.value for r in results] == [4, None, 8]
        assert results[1].error.phase == "error"

    def test_timeout_is_retried_then_reported(self):
        runner = Runner(jobs=2, cache=None, timeout_s=0.3, retries=1)
        results = runner.map(
            [_spec("sleep_for", seconds=60.0), _spec("quick", value=5)]
        )
        failure = results[0].error
        assert failure.phase == "timeout"
        assert failure.attempts == 2  # first attempt + one retry
        assert results[1].ok and results[1].value == 10

    def test_crashed_worker_reported_with_surviving_siblings(self):
        runner = Runner(jobs=2, cache=None, retries=0)
        results = runner.map(
            [_spec("quick", value=1), _spec("die"), _spec("quick", value=9)]
        )
        assert results[0].ok and results[0].value == 2
        assert results[2].ok and results[2].value == 18
        failure = results[1].error
        assert failure.phase == "crash"
        assert not results[1].ok

    def test_run_values_yields_none_for_failures(self):
        runner = Runner(jobs=1, cache=None)
        values = runner.run_values([_spec("quick"), _spec("boom")])
        assert values == [2, None]

    def test_failures_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = Runner(jobs=1, cache=cache)
        runner.map([_spec("boom")])
        hit, _ = cache.get(_spec("boom"))
        assert not hit

    def test_describe(self):
        failure = FailedResult(spec=_spec("boom"), phase="error",
                               error="ValueError: nope")
        assert "[error]" in failure.describe()
        assert "ValueError: nope" in failure.describe()


# ----------------------------------------------------------------------
# Process-pool fallback: identical results and cache digests
# ----------------------------------------------------------------------
class TestPoolFallback:
    def _specs(self):
        from repro.mac.ap import Scheme

        return [
            RunSpec.make(
                "repro.experiments.airtime_udp:run_scheme",
                scheme=scheme, duration_s=0.4, warmup_s=0.2, seed=1,
            )
            for scheme in (Scheme.FIFO, Scheme.AIRTIME)
        ]

    def test_fallback_matches_pool_results_and_digests(
        self, tmp_path, monkeypatch
    ):
        pool_cache = ResultCache(tmp_path / "pool")
        pool_runner = Runner(jobs=2, cache=pool_cache)
        pool_values = pool_runner.run_values(self._specs())
        assert pool_runner.used_pool

        def broken_pool(*args, **kwargs):
            raise OSError("no process pools in this sandbox")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", broken_pool)
        fallback_cache = ResultCache(tmp_path / "fallback")
        fallback_runner = Runner(jobs=2, cache=fallback_cache)
        fallback_values = fallback_runner.run_values(self._specs())
        assert not fallback_runner.used_pool

        assert pool_values == fallback_values
        # Same digests: each cache directory holds the same entry names.
        pool_entries = sorted(p.name for p in (tmp_path / "pool").glob("*.pkl"))
        fb_entries = sorted(
            p.name for p in (tmp_path / "fallback").glob("*.pkl")
        )
        assert pool_entries == fb_entries and len(pool_entries) == 2

    def test_fallback_not_taken_when_a_spec_crashes_the_pool(self):
        """A worker killed by its spec must NOT be re-run in-process
        (re-running it would take down the main interpreter)."""
        runner = Runner(jobs=2, cache=None, retries=0)
        results = runner.map([_spec("die"), _spec("die", delay_s=0.3)])
        assert runner.used_pool  # no in-process fallback happened
        assert all(not r.ok for r in results)
        assert all(r.error.phase == "crash" for r in results)


# ----------------------------------------------------------------------
# Cache integrity: checksums and quarantine
# ----------------------------------------------------------------------
class TestCacheQuarantine:
    def test_corrupt_entry_quarantined_with_warning(
        self, tmp_path, caplog, monkeypatch
    ):
        # A CLI test may have run configure_logging(), which detaches the
        # "repro" tree from the root logger; restore propagation so
        # caplog (rooted) can see the cache warning.
        logger = logging.getLogger("repro")
        monkeypatch.setattr(logger, "propagate", True)
        monkeypatch.setattr(logger, "handlers", [])
        cache = ResultCache(tmp_path)
        spec = _spec("quick", value=7)
        cache.put(spec, 14)
        path = cache.path_for(spec)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # flip a bit mid-payload
        path.write_bytes(bytes(raw))

        with caplog.at_level("WARNING", logger="repro.cache"):
            hit, _ = cache.get(spec)
        assert not hit
        assert cache.quarantined == 1
        assert not path.exists()
        quarantined = path.with_suffix(path.suffix + ".corrupt")
        assert quarantined.exists()
        assert any("checksum" in r.message for r in caplog.records)

    @staticmethod
    def _assert_quarantined_then_recovers(root, raw: bytes) -> None:
        cache = ResultCache(root)
        spec = _spec("quick", value=7)
        cache.put(spec, 14)
        path = cache.path_for(spec)
        path.write_bytes(raw)
        hit, _ = cache.get(spec)
        assert not hit
        assert cache.quarantined == 1
        assert path.with_suffix(path.suffix + ".corrupt").exists()
        # A rewrite restores normal service beside the quarantined file.
        cache.put(spec, 14)
        hit, payload = cache.get(spec)
        assert hit and payload["value"] == 14

    def test_quarantined_entry_never_reloads_and_put_recovers(self, tmp_path):
        self._assert_quarantined_then_recovers(tmp_path, b"\x80\x04garbage")

    def test_bare_dict_entry_is_quarantined(self, tmp_path):
        # Every cache key hashes the code fingerprint, so a bare pickled
        # dict at a current digest is not a valid old-format entry: like
        # any other non-envelope bytes it is quarantined.
        bare = pickle.dumps({"version": "1.1.0", "value": 14})
        self._assert_quarantined_then_recovers(tmp_path, bare)

    def test_checksum_survives_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec("quick", value=3)
        cache.put(spec, {"nested": [1, 2, 3]})
        hit, payload = cache.get(spec)
        assert hit and payload["value"] == {"nested": [1, 2, 3]}
        assert cache.quarantined == 0

    def test_truncated_envelope_quarantined_and_run_reexecutes(
        self, tmp_path
    ):
        """A torn write (e.g. pre-atomic crash) is quarantined and the
        next run transparently re-executes + rewrites the entry."""
        cache = ResultCache(tmp_path)
        spec = _spec("quick", value=21)
        runner = Runner(jobs=1, cache=cache)
        assert runner.run_values([spec]) == [42]
        path = cache.path_for(spec)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # truncate mid-envelope

        rerun = Runner(jobs=1, cache=cache)
        assert rerun.run_values([spec]) == [42]  # miss -> re-executed
        assert cache.quarantined == 1
        assert path.with_suffix(path.suffix + ".corrupt").exists()
        # The entry was rewritten durably and now hits again.
        hit, payload = cache.get(spec)
        assert hit and payload["value"] == 42

    def test_clear_removes_quarantined_entries_too(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec("quick", value=7)
        cache.put(spec, 14)
        path = cache.path_for(spec)
        path.write_bytes(b"junk that is definitely not an envelope")
        cache.get(spec)  # quarantines
        cache.put(spec, 14)  # fresh entry next to the quarantined one
        assert cache.clear() == 2
        assert not list(cache.root.glob("*"))


# ----------------------------------------------------------------------
# Graceful interruption: SIGTERM mid-sweep drains in-flight runs,
# flushes the manifest (with its footer) and exits 130.
# ----------------------------------------------------------------------
_DRIVER = """
import sys
from repro.runner import Runner, RunSpec

manifest, sentinel = sys.argv[1], sys.argv[2]
runner = Runner(jobs=2, cache=None, graceful_signals=True,
                manifest_path=manifest)
specs = [
    RunSpec.make("tests.test_runner_faults:touch_then_sleep",
                 sentinel=sentinel, seconds=60.0, label=f"s{i}")
    for i in range(4)
]
results = runner.map(specs)
phases = [r.error.phase for r in results if not r.ok]
assert runner.interrupted, "runner should report interruption"
assert "interrupted" in phases, phases
sys.exit(130 if runner.interrupted else 0)
"""


class TestRunnerGracefulSignals:
    def test_sigterm_drains_flushes_manifest_and_exits_130(self, tmp_path):
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
                    raise AssertionError(
                        f"driver exited early: rc={proc.returncode}")
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
