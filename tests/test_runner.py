"""Tests for the parallel experiment runner (specs, cache, executor)."""

from __future__ import annotations

import pickle
import shutil

import pytest

from repro.mac.ap import Scheme
from repro.runner import (
    ResultCache,
    RunSpec,
    Runner,
    canonical,
    code_fingerprint,
    execute,
)
from repro.runner import executor as executor_mod
from repro.runner.spec import PACKAGE_ROOT

#: Invocation log for in-process execution tests (reset per test).
CALLS: list = []


def square(x: int) -> int:
    CALLS.append(x)
    return x * x


@pytest.fixture(autouse=True)
def _reset_calls():
    CALLS.clear()


def spec_for(x: int) -> RunSpec:
    return RunSpec.make("tests.test_runner:square", x=x)


# ----------------------------------------------------------------------
# RunSpec: canonicalisation, digests, seeds
# ----------------------------------------------------------------------
class TestRunSpec:
    def test_digest_stable_across_kwarg_order(self):
        a = RunSpec.make("m:f", x=1, y=2.5, z="s")
        b = RunSpec.make("m:f", z="s", y=2.5, x=1)
        assert a.digest() == b.digest()

    def test_digest_changes_with_any_kwarg(self):
        base = RunSpec.make("m:f", scheme=Scheme.FIFO, seed=1)
        assert base.digest() != RunSpec.make("m:f", scheme=Scheme.FIFO,
                                             seed=2).digest()
        assert base.digest() != RunSpec.make("m:f", scheme=Scheme.AIRTIME,
                                             seed=1).digest()

    def test_digest_changes_with_the_code(self):
        spec = RunSpec.make("m:f", x=1)
        assert spec.digest() == spec.digest(code_fingerprint())
        assert spec.digest("a" * 64) != spec.digest("b" * 64)

    def test_editing_one_function_changes_every_key(self, tmp_path):
        """The cache key covers the package's sources: fingerprint a copy
        of the tree, edit one function in it, and every key moves —
        for specs of every registered experiment, not just its own."""
        from repro.experiments.registry import EXPERIMENTS

        tree = tmp_path / "repro"
        shutil.copytree(PACKAGE_ROOT, tree,
                        ignore=shutil.ignore_patterns("__pycache__"))
        fingerprint = code_fingerprint.__wrapped__  # bypass the memo
        before = fingerprint(tree)
        assert before == code_fingerprint()  # a copy is the same code
        specs = [spec_for(3)] + [
            spec for row in EXPERIMENTS
            for spec in row.module.specs(duration_s=1.0, warmup_s=0.5,
                                         seed=1)]
        keys = [spec.digest(before) for spec in specs]

        # One operator in ``_control_law``: same length, same line count.
        codel = tree / "core" / "codel.py"
        text = codel.read_text()
        law = "return t_us + interval_us / math.sqrt(count)"
        assert text.count(law) == 1
        codel.write_text(text.replace(law, law.replace("+", "-")))
        after = fingerprint(tree)
        assert after != before
        moved = [spec.digest(after) for spec in specs]
        assert not set(keys) & set(moved)

        # A renamed file is a different tree even with the same bytes.
        codel.write_text(text)
        assert fingerprint(tree) == before
        codel.rename(tree / "core" / "codel2.py")
        assert fingerprint(tree) != before

    def test_telemetry_config_changes_digest(self):
        """Cache-key hygiene: a traced run must never be satisfied from an
        untraced run's cache entry (or vice versa), and changing any
        telemetry knob must change the key too."""
        from repro.telemetry import TelemetryConfig

        untraced = RunSpec.make("m:f", scheme=Scheme.FIFO, seed=1)
        traced = RunSpec.make("m:f", scheme=Scheme.FIFO, seed=1,
                              telemetry=TelemetryConfig(trace=True))
        assert untraced.digest() != traced.digest()

        filtered = RunSpec.make(
            "m:f", scheme=Scheme.FIFO, seed=1,
            telemetry=TelemetryConfig(trace=True, categories=("tx",)),
        )
        assert traced.digest() != filtered.digest()

        with_metrics = RunSpec.make(
            "m:f", scheme=Scheme.FIFO, seed=1,
            telemetry=TelemetryConfig(trace=True, metrics=True),
        )
        assert traced.digest() != with_metrics.digest()

    def test_label_does_not_affect_digest_or_equality(self):
        a = RunSpec.make("m:f", label="a", x=1)
        b = RunSpec.make("m:f", label="b", x=1)
        assert a.digest() == b.digest()
        assert a == b

    def test_canonical_handles_enums_and_dataclasses(self):
        from repro.traffic.web import SMALL_PAGE

        blob = canonical({"scheme": Scheme.FIFO, "page": SMALL_PAGE,
                          "delays": (5.0, 50.0)})
        import json

        json.dumps(blob)  # must be JSON-serialisable

    def test_canonical_rejects_opaque_objects(self):
        with pytest.raises(TypeError):
            canonical(object())

    def test_spec_is_picklable(self):
        spec = RunSpec.make("m:f", scheme=Scheme.AIRTIME, duration_s=3.0)
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_call_executes_target(self):
        assert spec_for(7).call() == 49

    def test_bad_fn_path_rejected(self):
        with pytest.raises(ValueError):
            RunSpec.make("no_colon_here", x=1).resolve()


# ----------------------------------------------------------------------
# ResultCache: hit/miss/invalidation
# ----------------------------------------------------------------------
class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = spec_for(3)
        hit, _ = cache.get(spec)
        assert not hit
        cache.put(spec, 9)
        hit, payload = cache.get(spec)
        assert hit and payload["value"] == 9
        assert cache.hits == 1 and cache.misses == 1

    def test_spec_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(spec_for(3), 9)
        hit, _ = cache.get(spec_for(4))
        assert not hit

    def test_code_change_invalidates(self, tmp_path):
        spec = spec_for(3)
        ResultCache(tmp_path, code="a" * 64).put(spec, 9)
        assert ResultCache(tmp_path, code="a" * 64).get(spec)[0]
        hit, _ = ResultCache(tmp_path, code="b" * 64).get(spec)
        assert not hit

    @pytest.mark.parametrize(
        "garbage",
        [
            b"not a pickle",
            b"garbage\n",  # 'g' is pickle's GET opcode -> ValueError
            b"",
            pickle.dumps("not a payload dict"),
        ],
    )
    def test_corrupt_entry_is_a_miss(self, tmp_path, garbage):
        cache = ResultCache(tmp_path)
        spec = spec_for(3)
        cache.put(spec, 9)
        cache.path_for(spec).write_bytes(garbage)
        hit, _ = cache.get(spec)
        assert not hit

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(spec_for(1), 1)
        cache.put(spec_for(2), 4)
        assert cache.clear() == 2
        hit, _ = cache.get(spec_for(1))
        assert not hit


# ----------------------------------------------------------------------
# Runner: execution modes, ordering, caching, fallback
# ----------------------------------------------------------------------
class TestRunnerExecution:
    def test_jobs_1_runs_in_process(self):
        runner = Runner(jobs=1, cache=None)
        results = runner.map([spec_for(x) for x in (3, 1, 2)])
        assert [r.value for r in results] == [9, 1, 4]
        assert not runner.used_pool
        assert CALLS == [3, 1, 2]  # in-process, submission order

    def test_single_spec_skips_the_pool(self):
        runner = Runner(jobs=8, cache=None)
        assert runner.run_values([spec_for(5)]) == [25]
        assert not runner.used_pool

    def test_execute_without_runner_is_serial(self):
        assert execute([spec_for(x) for x in (2, 3)]) == [4, 9]
        assert CALLS == [2, 3]

    def test_metrics_track_simulator_events(self):
        spec = RunSpec.make(
            "repro.experiments.airtime_udp:run_scheme",
            scheme=Scheme.FIFO, duration_s=0.5, warmup_s=0.2, seed=1,
        )
        result = Runner(jobs=1, cache=None).map([spec])[0]
        assert result.metrics.events > 1000
        assert result.metrics.wall_s > 0
        assert result.metrics.events_per_sec > 0
        assert not result.metrics.cached

    def test_cache_hit_skips_execution(self, tmp_path):
        runner = Runner(jobs=1, cache=ResultCache(tmp_path))
        specs = [spec_for(x) for x in (2, 3)]
        first = runner.map(specs)
        assert [r.metrics.cached for r in first] == [False, False]
        CALLS.clear()
        second = runner.map(specs)
        assert [r.metrics.cached for r in second] == [True, True]
        assert CALLS == []  # nothing recomputed
        assert [r.value for r in second] == [r.value for r in first]

    def test_cache_partial_hit_executes_only_misses(self, tmp_path):
        runner = Runner(jobs=1, cache=ResultCache(tmp_path))
        runner.map([spec_for(2)])
        CALLS.clear()
        results = runner.map([spec_for(2), spec_for(5)])
        assert [r.value for r in results] == [4, 25]
        assert [r.metrics.cached for r in results] == [True, False]
        assert CALLS == [5]

    def test_pool_unavailable_falls_back_in_process(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no process pools in this sandbox")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", broken_pool)
        # Enough CPUs that the runner reaches for the (broken) pool.
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 8)
        runner = Runner(jobs=4, cache=None)
        assert runner.run_values([spec_for(x) for x in (1, 2, 3)]) == [1, 4, 9]
        assert not runner.used_pool

    def test_default_jobs_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert executor_mod.default_jobs() == 7
        monkeypatch.setenv("REPRO_JOBS", "bogus")
        assert executor_mod.default_jobs() >= 1


class TestAutoSerial:
    """Oversubscription fallback: pools slower than serial on few CPUs."""

    def test_falls_back_when_jobs_exceed_cpus(self, monkeypatch):
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 2)
        runner = Runner(jobs=8, cache=None)
        assert runner.jobs == 1
        assert runner.requested_jobs == 8
        assert runner.execution_mode == "serial (auto)"
        assert runner.run_values([spec_for(x) for x in (2, 3)]) == [4, 9]
        assert not runner.used_pool

    def test_no_fallback_within_cpu_budget(self, monkeypatch):
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 8)
        runner = Runner(jobs=4, cache=None)
        assert runner.jobs == 4
        assert runner.requested_jobs == 4
        assert runner.execution_mode == "parallel"

    def test_timeout_keeps_the_pool(self, monkeypatch):
        """Only the pool path can enforce timeout_s, so the fallback
        must not demote a runner that needs the budget."""
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 1)
        runner = Runner(jobs=4, cache=None, timeout_s=30.0)
        assert runner.jobs == 4
        assert runner.execution_mode == "parallel"

    @pytest.mark.parametrize("timeout_s", [0.0, -1.0, float("nan"),
                                           float("inf")])
    def test_timeout_must_be_finite_and_positive(self, timeout_s):
        """A zero, negative or NaN budget times every run out at once."""
        with pytest.raises(ValueError, match="timeout_s"):
            Runner(jobs=2, cache=None, timeout_s=timeout_s)

    def test_serial_request_stays_serial(self):
        runner = Runner(jobs=1, cache=None)
        assert runner.execution_mode == "serial"
        assert runner.requested_jobs == 1


@pytest.mark.slow
class TestParallelDeterminism:
    """Parallel output must be bit-identical to serial."""

    def test_latency_tables_identical(self, tmp_path):
        from repro.experiments import latency
        from repro.experiments.registry import BY_ID

        serial = BY_ID["fig04"].run(duration_s=2.0, warmup_s=1.0, seed=1)
        parallel = BY_ID["fig04"].run(
            duration_s=2.0, warmup_s=1.0, seed=1,
            runner=Runner(jobs=2, cache=None),
        )
        assert latency.format_table(serial) == latency.format_table(parallel)
        assert serial == parallel

    def test_cached_rerun_matches_fresh(self, tmp_path):
        from repro.experiments import airtime_udp
        from repro.experiments.registry import BY_ID

        runner = Runner(jobs=2, cache=ResultCache(tmp_path))
        fresh = BY_ID["fig05"].run(duration_s=1.0, warmup_s=0.5, runner=runner)
        cached = BY_ID["fig05"].run(duration_s=1.0, warmup_s=0.5, runner=runner)
        assert airtime_udp.format_table(fresh) == (
            airtime_udp.format_table(cached)
        )
        assert runner.cache.hits == len(fresh)
