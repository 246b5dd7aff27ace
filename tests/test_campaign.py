"""Campaign layer: spec expansion, journal, shards, retries, engine.

Cell functions live at module top level so pool workers (forked with
this module already imported) can unpickle references to them.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignEngine,
    CampaignReducer,
    CampaignSpec,
    DEFAULT_BUDGETS,
    Journal,
    RetryPolicy,
    ShardCorrupt,
    SpecMismatch,
    campaign_status,
    classify_failure,
    flatten_metrics,
    format_status,
    read_journal,
    read_shard,
    scan_shards,
    shard_path,
    write_shard,
)
from repro.campaign.journal import encode_record
from repro.runner.executor import FailedResult
from repro.runner.spec import RunSpec, derive_seed


# ----------------------------------------------------------------------
# Cell functions (importable by forked workers)
# ----------------------------------------------------------------------
def ok_cell(x: int = 0, seed: int = 0) -> dict:
    return {"double": x * 2, "seed_mod": seed % 1000}


def boom_cell(x: int = 0, seed: int = 0) -> dict:
    raise ValueError(f"deterministic boom x={x}")


def flaky_cell(spool: str = "", x: int = 0, seed: int = 0) -> dict:
    """Fails with a deterministic error until its marker is consumed."""
    marker = Path(spool) / f"flaky-{x}"
    if marker.exists():
        marker.unlink()
        raise ValueError("transient-looking failure")
    return {"x": x}


def interrupt_once_cell(spool: str = "", x: int = 0, seed: int = 0) -> dict:
    """Raises KeyboardInterrupt the first time cell 0 runs."""
    marker = Path(spool) / "interrupt-once"
    if x == 0 and marker.exists():
        marker.unlink()
        raise KeyboardInterrupt
    return {"x": x, "seed": seed}


def _grid_spec(**overrides) -> CampaignSpec:
    kwargs = dict(
        name="t",
        fn="tests.test_campaign:ok_cell",
        grid={"x": [1, 2, 3]},
        replications=2,
        base_seed=11,
    )
    kwargs.update(overrides)
    return CampaignSpec.make(**kwargs)


# ----------------------------------------------------------------------
# Spec expansion
# ----------------------------------------------------------------------
class TestCampaignSpec:
    def test_expansion_order_and_seed_ladder(self):
        spec = _grid_spec()
        cells = spec.cells()
        assert len(cells) == 6 == spec.total_cells
        assert [c.index for c in cells] == list(range(6))
        # First axis slowest, reps innermost.
        assert [(dict(c.key)["x"], c.rep) for c in cells] == [
            (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1)
        ]
        for cell in cells:
            assert cell.seed == derive_seed(11, list(cell.key), cell.rep)
        # Seeds are unique across the campaign.
        assert len({c.seed for c in cells}) == 6

    def test_expansion_is_deterministic(self):
        assert _grid_spec().cells() == _grid_spec().cells()

    def test_cross_product_multi_axis(self):
        spec = CampaignSpec.make(
            name="m", fn="tests.test_campaign:ok_cell",
            grid={"a": [1, 2], "b": ["x", "y", "z"]},
        )
        keys = [dict(c.key) for c in spec.cells()]
        assert len(keys) == 6
        assert keys[0] == {"a": 1, "b": "x"}
        assert keys[-1] == {"a": 2, "b": "z"}

    def test_cell_to_run_spec_carries_seed_and_fixed(self):
        spec = CampaignSpec.make(
            name="f", fn="tests.test_campaign:ok_cell",
            grid={"x": [5]}, fixed={"extra": 7},
        )
        run = spec.cells()[0].to_run_spec()
        assert isinstance(run, RunSpec)
        kwargs = dict(run.kwargs)
        assert kwargs["x"] == 5 and kwargs["extra"] == 7
        assert "seed" in kwargs

    def test_json_roundtrip_preserves_digest(self, tmp_path):
        spec = _grid_spec(retry_budgets={"crash": 5}, min_complete=0.5)
        path = tmp_path / "spec.json"
        path.write_text(spec.to_json())
        loaded = CampaignSpec.from_json(str(path))
        assert loaded == spec
        assert loaded.digest() == spec.digest()

    def test_digest_changes_with_grid(self):
        assert _grid_spec().digest() != _grid_spec(grid={"x": [1, 2]}).digest()

    def test_validation(self):
        with pytest.raises(ValueError):
            _grid_spec(replications=0)
        with pytest.raises(ValueError):
            _grid_spec(grid={})
        with pytest.raises(ValueError):
            _grid_spec(grid={"x": []})
        with pytest.raises(ValueError):
            _grid_spec(min_complete=1.5)


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.commit({"ev": "campaign", "digest": "d"})
            journal.append({"ev": "attempt", "cell": 0, "attempt": 1})
            journal.commit({"ev": "commit", "cell": 0, "sha256": "x"})
        records, truncated = read_journal(path)
        assert not truncated
        assert [r["ev"] for r in records] == ["campaign", "attempt", "commit"]

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.commit({"ev": "campaign"})
            journal.commit({"ev": "commit", "cell": 0})
        # Simulate a kill -9 mid-write: append half a line.
        with open(path, "a") as handle:
            handle.write(encode_record({"ev": "commit", "cell": 1})[:20])
        records, truncated = read_journal(path)
        assert truncated
        assert [r.get("cell") for r in records] == [None, 0]

    def test_checksum_failure_stops_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        good = encode_record({"ev": "commit", "cell": 0})
        bad = good.replace('"cell":0', '"cell":9')  # bytes no longer match sha
        path.write_text(good + "\n" + bad + "\n" + good + "\n")
        records, truncated = read_journal(path)
        assert truncated
        assert len(records) == 1  # nothing after the corrupt line is trusted

    def test_recover_rewrites_valid_prefix(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.commit({"ev": "campaign"})
        with open(path, "a") as handle:
            handle.write('{"torn')
        records, truncated = Journal.recover(path)
        assert truncated and len(records) == 1
        # The file now ends on a newline and replays clean.
        records2, truncated2 = read_journal(path)
        assert records2 == records and not truncated2
        # Appends after recovery never concatenate onto a torn line.
        with Journal(path) as journal:
            journal.commit({"ev": "end"})
        records3, truncated3 = read_journal(path)
        assert not truncated3 and records3[-1]["ev"] == "end"

    def test_unterminated_but_valid_tail_is_kept(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(encode_record({"ev": "campaign"}))  # no newline
        records, truncated = read_journal(path)
        assert truncated  # flagged so recovery adds the newline
        assert records == [{"ev": "campaign"}]

    def test_missing_file_is_empty(self, tmp_path):
        records, truncated = read_journal(tmp_path / "absent.jsonl")
        assert records == [] and not truncated


# ----------------------------------------------------------------------
# Shards
# ----------------------------------------------------------------------
class TestShards:
    def test_write_read_roundtrip(self, tmp_path):
        path, sha = write_shard(tmp_path, 3, {"x": 1}, 0, 42, {"m": 1.5})
        assert path == shard_path(tmp_path, 3)
        payload = read_shard(path)
        assert payload["value"] == {"m": 1.5}
        assert payload["sha256"] == sha
        assert payload["seed"] == 42

    def test_truncated_shard_raises_and_scan_quarantines(self, tmp_path):
        write_shard(tmp_path, 0, {"x": 1}, 0, 1, {"m": 1})
        write_shard(tmp_path, 1, {"x": 2}, 0, 2, {"m": 2})
        victim = shard_path(tmp_path, 0)
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ShardCorrupt):
            read_shard(victim)
        found = list(scan_shards(tmp_path))
        assert [cell for cell, _, _ in found] == [1]
        assert not victim.exists()
        assert victim.with_suffix(".json.corrupt").exists()

    def test_value_tamper_detected(self, tmp_path):
        write_shard(tmp_path, 0, {"x": 1}, 0, 1, {"m": 1})
        path = shard_path(tmp_path, 0)
        payload = json.loads(path.read_text())
        payload["value"]["m"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ShardCorrupt, match="checksum"):
            read_shard(path)

    def test_shard_bytes_are_deterministic(self, tmp_path):
        write_shard(tmp_path / "a", 0, {"x": 1}, 0, 1, {"m": [1, 2]})
        write_shard(tmp_path / "b", 0, {"x": 1}, 0, 1, {"m": [1, 2]})
        assert (shard_path(tmp_path / "a", 0).read_bytes()
                == shard_path(tmp_path / "b", 0).read_bytes())


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def _failure(self, phase: str, error: str = "x") -> FailedResult:
        spec = RunSpec.make("tests.test_campaign:ok_cell")
        return FailedResult(spec=spec, phase=phase, error=error)

    def test_classification(self):
        assert classify_failure(self._failure("timeout")) == "timeout"
        assert classify_failure(self._failure("crash")) == "crash"
        assert classify_failure(self._failure("interrupted")) == "interrupted"
        assert classify_failure(self._failure("error")) == "error"
        assert classify_failure(
            self._failure("error", "InvariantViolation: queue leak")
        ) == "invariant"

    def test_budgets(self):
        policy = RetryPolicy()
        assert not policy.should_retry("error", 1)
        assert not policy.should_retry("invariant", 1)
        assert policy.should_retry("timeout", 1)
        assert policy.should_retry("timeout", 2)
        assert not policy.should_retry("timeout", 3)
        assert policy.should_retry("io", 3)
        assert not policy.should_retry("io", 4)
        # Interruption is never charged.
        assert policy.should_retry("interrupted", 10 ** 6)

    def test_spec_budget_override(self):
        spec = _grid_spec(retry_budgets={"crash": 0, "weird": 4})
        policy = RetryPolicy.for_spec(spec)
        assert not policy.should_retry("crash", 1)
        assert policy.should_retry("weird", 4)
        assert policy.budget("timeout") == DEFAULT_BUDGETS["timeout"]

    def test_backoff_bounded_exponential_with_seeded_jitter(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=1.0, seed=3)
        for attempt, base in [(1, 0.1), (2, 0.2), (3, 0.4), (4, 0.8),
                              (5, 1.0), (9, 1.0)]:  # capped at 1.0
            delay = policy.backoff_s(cell_index=7, attempt=attempt)
            assert 0.5 * base <= delay < 1.5 * base
        # Deterministic: an identical policy replays the same schedule.
        again = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=1.0, seed=3)
        assert again.backoff_s(7, 3) == policy.backoff_s(7, 3)
        # ...but different cells jitter differently.
        assert policy.backoff_s(8, 3) != policy.backoff_s(7, 3)
        assert policy.backoff_s(7, 0) == 0.0


# ----------------------------------------------------------------------
# Reducer
# ----------------------------------------------------------------------
class TestReducer:
    def test_flatten(self):
        flat = dict(flatten_metrics({
            "a": 1, "b": {"c": 2.5}, "d": [3, 4], "label": "x", "ok": True,
        }))
        assert flat == {"a": 1.0, "b.c": 2.5, "d[0]": 3.0, "d[1]": 4.0}

    def test_groups_by_grid_point_and_is_deterministic(self):
        def folded() -> dict:
            reducer = CampaignReducer()
            for rep in range(5):
                reducer.fold({"key": {"x": 1},
                              "value": {"m": rep * 1.5, "tag": "s"}})
            reducer.fold({"key": {"x": 2}, "value": {"m": 100.0}})
            return reducer.to_dict()

        doc = folded()
        assert set(doc) == {'{"x":1}', '{"x":2}'}
        group = doc['{"x":1}']
        assert group["key"] == {"x": 1}
        assert group["metrics"]["m"]["count"] == 5
        assert json.dumps(folded(), sort_keys=True) == json.dumps(
            doc, sort_keys=True
        )


# ----------------------------------------------------------------------
# Engine end-to-end
# ----------------------------------------------------------------------
class TestEngine:
    def test_clean_run_exit_0_and_merged_output(self, tmp_path):
        spec = _grid_spec()
        outcome = CampaignEngine(spec, tmp_path / "c", jobs=1).run()
        assert outcome.exit_code == 0
        assert outcome.committed == 6 and outcome.failed == 0
        merged = json.loads((tmp_path / "c" / "merged.json").read_text())
        assert merged["committed"] == 6
        assert merged["missing_cells"] == []
        assert merged["digest"] == spec.digest()
        # One group per grid point, distribution over the 2 reps.
        assert len(merged["groups"]) == 3
        status = campaign_status(tmp_path / "c")
        assert status.exit_code == 0 and status.has_footer
        # Journal footer is present and well-formed.
        records, truncated = read_journal(tmp_path / "c" / "journal.jsonl")
        assert not truncated
        assert records[-1]["ev"] == "end"
        assert records[-1]["committed"] == 6

    def test_rerun_is_idempotent_and_byte_identical(self, tmp_path):
        spec = _grid_spec()
        CampaignEngine(spec, tmp_path / "c", jobs=1).run()
        merged_1 = (tmp_path / "c" / "merged.json").read_bytes()
        outcome = CampaignEngine(spec, tmp_path / "c", jobs=1).run(resume=True)
        assert outcome.exit_code == 0
        assert (tmp_path / "c" / "merged.json").read_bytes() == merged_1
        # And matches a fresh directory's output byte for byte.
        CampaignEngine(spec, tmp_path / "d", jobs=1).run()
        assert (tmp_path / "d" / "merged.json").read_bytes() == merged_1

    def test_deterministic_error_gives_up_immediately_partial_exit(
        self, tmp_path
    ):
        spec = CampaignSpec.make(
            name="p", fn="tests.test_campaign:boom_cell",
            grid={"x": [1, 2]}, min_complete=0.0, backoff_base_s=0.0,
        )
        outcome = CampaignEngine(spec, tmp_path / "c", jobs=1).run()
        # All cells failed but min_complete=0 -> partial, not breach.
        assert outcome.exit_code == 3
        rows = outcome.rows
        assert all(r.state == "failed" for r in rows)
        assert all(r.attempts == 1 for r in rows)  # error: no retries
        assert all(r.failure_class == "error" for r in rows)
        assert "deterministic boom" in rows[0].error
        status = campaign_status(tmp_path / "c")
        assert status.exit_code == 3

    def test_min_complete_gate_breach_exit_4(self, tmp_path):
        spec = CampaignSpec.make(
            name="g", fn="tests.test_campaign:boom_cell",
            grid={"x": [1]}, min_complete=1.0, backoff_base_s=0.0,
        )
        outcome = CampaignEngine(spec, tmp_path / "c", jobs=1).run()
        assert outcome.exit_code == 4

    def test_failed_cells_retry_on_resume_and_converge(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "flaky-1").write_text("fail once\n")
        spec = CampaignSpec.make(
            name="flaky", fn="tests.test_campaign:flaky_cell",
            grid={"x": [1, 2]}, fixed={"spool": str(spool)},
            min_complete=0.0, backoff_base_s=0.0,
        )
        outcome = CampaignEngine(spec, tmp_path / "c", jobs=1).run()
        assert outcome.exit_code == 3  # cell 1 failed (error: no retry)
        assert outcome.committed == 1
        # Resume without --reset-failures keeps the gave-up verdict.
        outcome = CampaignEngine.open(tmp_path / "c", jobs=1).run(resume=True)
        assert outcome.exit_code == 3 and outcome.committed == 1
        # reset_failures forgets the verdict; the marker is consumed, so
        # the retry now succeeds and the campaign completes cleanly.
        outcome = CampaignEngine.open(tmp_path / "c", jobs=1).run(
            resume=True, reset_failures=True
        )
        assert outcome.exit_code == 0 and outcome.committed == 2

    def test_spec_mismatch_refused(self, tmp_path):
        CampaignEngine(_grid_spec(), tmp_path / "c", jobs=1).run()
        other = _grid_spec(name="other")
        with pytest.raises(SpecMismatch):
            CampaignEngine(other, tmp_path / "c", jobs=1).run()

    def test_open_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CampaignEngine.open(tmp_path / "nope")

    def test_interrupt_mid_campaign_exit_130_then_resume(self, tmp_path):
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "interrupt-once").write_text("x\n")
        spec = CampaignSpec.make(
            name="intr", fn="tests.test_campaign:interrupt_once_cell",
            grid={"x": [0, 1]}, fixed={"spool": str(spool)},
            backoff_base_s=0.0,
        )
        outcome = CampaignEngine(spec, tmp_path / "c", jobs=1).run()
        assert outcome.interrupted and outcome.exit_code == 130
        # Interruption charges no retry budget.
        assert all(r.attempts == 0 for r in outcome.rows)
        assert not (tmp_path / "c" / "merged.json").exists()
        status = campaign_status(tmp_path / "c")
        assert not status.has_footer and status.exit_code == 3
        # Resume finishes the pending cells and writes identical output.
        outcome = CampaignEngine.open(tmp_path / "c", jobs=1).run(resume=True)
        assert outcome.exit_code == 0 and outcome.committed == 2
        reference = CampaignEngine(spec, tmp_path / "ref", jobs=1).run()
        assert reference.exit_code == 0
        assert ((tmp_path / "c" / "merged.json").read_bytes()
                == (tmp_path / "ref" / "merged.json").read_bytes())

    def test_orphan_shard_is_adopted(self, tmp_path):
        spec = _grid_spec(grid={"x": [1]}, replications=1)
        cell = spec.cells()[0]
        cdir = tmp_path / "c"
        # Fabricate the crash window: a valid shard, no journal commit.
        write_shard(cdir / "shards", cell.index, cell.key_dict,
                    cell.rep, cell.seed, {"double": 2, "seed_mod": 1})
        outcome = CampaignEngine(spec, cdir, jobs=1).run()
        assert outcome.exit_code == 0
        records, _ = read_journal(cdir / "journal.jsonl")
        adopted = [r for r in records
                   if r.get("ev") == "commit" and r.get("adopted")]
        assert len(adopted) == 1

    def test_status_flags_missing_footer_and_commit_without_shard(
        self, tmp_path
    ):
        spec = _grid_spec(grid={"x": [1]}, replications=1)
        cdir = tmp_path / "c"
        CampaignEngine(spec, cdir, jobs=1).run()
        # Wound 1: delete the committed shard out from under the journal.
        shard_path(cdir / "shards", 0).unlink()
        status = campaign_status(cdir)
        assert status.corrupt_shards == 1 and status.exit_code == 4
        assert any("cell 0" in w for w in status.warnings)
        # Wound 2: strip the footer -> "still running/interrupted".
        journal = cdir / "journal.jsonl"
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:-1]) + "\n")
        status = campaign_status(cdir)
        assert not status.has_footer
        assert any("footer" in w for w in status.warnings)

    def test_format_status_renders_counts(self, tmp_path):
        spec = _grid_spec(grid={"x": [1]}, replications=1)
        outcome = CampaignEngine(spec, tmp_path / "c", jobs=1).run()
        text = format_status(outcome.rows, title="T")
        assert "# T" in text
        assert "1 committed" in text
        assert "t/x=1" in text


# ----------------------------------------------------------------------
# Timeout cells (pool path), kept tiny: two cells, zero retry budget
# ----------------------------------------------------------------------
def slow_cell(x: int = 0, seed: int = 0) -> dict:
    if x == 1:
        time.sleep(30.0)
    return {"x": x}


class TestTimeoutBudget:
    def test_timeout_charges_budget_and_surfaces_as_partial(self, tmp_path):
        from tests.chaos_harness import _pools_usable

        if not _pools_usable():  # pragma: no cover
            pytest.skip("process pools unavailable on this platform")
        spec = CampaignSpec.make(
            name="slow", fn="tests.test_campaign:slow_cell",
            grid={"x": [0, 1]}, min_complete=0.0,
            retry_budgets={"timeout": 0}, backoff_base_s=0.0,
        )
        outcome = CampaignEngine(spec, tmp_path / "c", jobs=2,
                                 timeout_s=2.0).run()
        assert outcome.exit_code == 3
        by_x = {dict(r.key)["x"]: r for r in outcome.rows}
        assert by_x[0].state == "committed"
        assert by_x[1].state == "failed"
        assert by_x[1].failure_class == "timeout"
        assert by_x[1].attempts == 1
        # The gave-up verdict persists in the journal for status readers.
        status = campaign_status(tmp_path / "c")
        assert status.rows[1].state == "failed"
