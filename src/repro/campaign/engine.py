"""The campaign engine: crash-safe execution of a CampaignSpec.

Execution is a sequence of *rounds*.  Each round fans the pending cells
out through the existing :class:`~repro.runner.executor.Runner`; every
result that comes back is checkpointed **shard first, journal second**:

1. the cell's value is written to a durable shard (atomic rename +
   fsync, checksummed payload);
2. only then is a ``commit`` record fsync'd into the write-ahead
   journal.

A crash between the two steps leaves an *orphan shard* — a valid
checkpoint with no journal record — which recovery adopts by verifying
its checksum and re-journaling it.  A crash before step 1 leaves
nothing, and the cell simply re-runs.  Either way, resume converges on
the same set of shards an uninterrupted run produces, and the merged
output is byte-identical (``tests/chaos_harness.py`` proves it with kills).

Failures are classified (timeout / crash / error / invariant / io /
interrupted) and charged against per-class retry budgets with bounded
exponential backoff and seeded jitter; cells that exhaust their budget
are recorded as ``gave_up`` and the campaign completes *partially* —
the per-cell status table shows every attempt, and the exit-code
contract is the repository-wide one: 0 clean, 3 partial, 4 gate breach
(completion below the spec's ``min_complete``), 130 interrupted.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Union

import repro
from repro.campaign.journal import Journal, read_journal
from repro.campaign.reducer import CampaignReducer, _group_id, flatten_metrics
from repro.campaign.retry import RetryPolicy, classify_failure
from repro.campaign.shards import scan_shards, shard_path, write_shard
from repro.campaign.spec import CampaignSpec, CellSpec
from repro.runner.atomicio import atomic_write_text
from repro.runner.cache import ResultCache
from repro.runner.executor import Runner
from repro.telemetry.logutil import get_logger

__all__ = [
    "CampaignEngine",
    "CampaignOutcome",
    "CampaignStatus",
    "CellStatus",
    "SpecMismatch",
    "campaign_status",
    "format_status",
]

log = get_logger("repro.campaign")

SPEC_FILE = "spec.json"
JOURNAL_FILE = "journal.jsonl"
SHARD_DIR = "shards"
MERGED_FILE = "merged.json"
STATUS_FILE = "status.json"

#: Defensive ceiling on engine rounds (budgets bound rounds already;
#: this only guards against a classification bug looping forever).
MAX_ROUNDS = 64


class SpecMismatch(ValueError):
    """The directory belongs to a different campaign spec."""


@dataclass
class CellStatus:
    """One row of the campaign status table."""

    index: int
    label: str
    key: Dict[str, Any]
    rep: int
    seed: int
    state: str = "pending"  # pending|committed|failed|interrupted|stopped
    attempts: int = 0
    failure_class: str = ""
    error: str = ""
    sha256: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cell": self.index,
            "label": self.label,
            "key": self.key,
            "rep": self.rep,
            "seed": self.seed,
            "state": self.state,
            "attempts": self.attempts,
            "failure_class": self.failure_class,
            "error": self.error,
            "sha256": self.sha256,
        }


@dataclass
class CampaignOutcome:
    """What one ``run``/``resume`` invocation accomplished."""

    spec: CampaignSpec
    rows: List[CellStatus]
    exit_code: int
    interrupted: bool = False
    merged_path: Optional[Path] = None

    @property
    def committed(self) -> int:
        return sum(1 for r in self.rows if r.state == "committed")

    @property
    def failed(self) -> int:
        return sum(1 for r in self.rows if r.state == "failed")

    @property
    def stopped(self) -> int:
        """Cells retired early by the sequential stopping rule."""
        return sum(1 for r in self.rows if r.state == "stopped")


@dataclass
class CampaignStatus:
    """Read-only inspection of a campaign directory (``campaign status``)."""

    directory: Path
    spec: Optional[CampaignSpec]
    rows: List[CellStatus]
    has_footer: bool
    journal_truncated: bool
    corrupt_shards: int
    warnings: List[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        if self.spec is None or self.journal_truncated or self.corrupt_shards:
            return 4
        done = sum(1 for r in self.rows
                   if r.state in ("committed", "stopped"))
        if self.has_footer and done == len(self.rows):
            return 0
        return 3


class CampaignEngine:
    """Executes (and resumes) one campaign in one directory."""

    def __init__(
        self,
        spec: CampaignSpec,
        directory: Union[str, Path],
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        timeout_s: Optional[float] = None,
        manifest_path: Optional[str] = None,
        sleep: Callable[[float], None] = time.sleep,
        checkpoint_wave: Optional[int] = None,
    ) -> None:
        self.spec = spec
        self.dir = Path(directory)
        self.jobs = jobs
        self.cache = cache
        self.timeout_s = timeout_s
        self.manifest_path = manifest_path
        self.sleep = sleep
        self.checkpoint_wave = checkpoint_wave
        self.policy = RetryPolicy.for_spec(spec)
        #: Precision-mode hook: set while the sequential-stopping
        #: scheduler runs so every committed value is folded into the
        #: per-group CI trackers the moment its shard lands.
        self._on_commit: Optional[Callable[[int, Any], None]] = None

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, directory: Union[str, Path], **kwargs: Any) -> "CampaignEngine":
        """Attach to an existing campaign directory (``resume``)."""
        spec_path = Path(directory) / SPEC_FILE
        if not spec_path.is_file():
            raise FileNotFoundError(
                f"{directory} has no {SPEC_FILE}; nothing to resume"
            )
        return cls(CampaignSpec.from_json(str(spec_path)), directory, **kwargs)

    # ------------------------------------------------------------------
    def _make_runner(self) -> Runner:
        # retries=0: the campaign layer owns every retry decision (the
        # runner would otherwise retry crashes invisibly, and its
        # attempts could not be journaled or backed off).
        return Runner(
            jobs=self.jobs,
            cache=self.cache,
            timeout_s=self.timeout_s,
            retries=0,
            graceful_signals=True,
            manifest_path=self.manifest_path,
        )

    def _pin_spec(self) -> None:
        """Write spec.json on first run; verify digest on later ones."""
        spec_path = self.dir / SPEC_FILE
        if spec_path.is_file():
            existing = CampaignSpec.from_json(str(spec_path))
            if existing.digest() != self.spec.digest():
                raise SpecMismatch(
                    f"{self.dir} already holds campaign "
                    f"{existing.name!r} ({existing.digest()[:12]}); "
                    f"refusing to run {self.spec.name!r} "
                    f"({self.spec.digest()[:12]}) over it"
                )
            return
        self.dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(spec_path, self.spec.to_json() + "\n")

    # ------------------------------------------------------------------
    def _recover_state(self, journal: Journal, records: List[Dict[str, Any]],
                       rows: Dict[int, CellStatus],
                       reset_failures: bool) -> None:
        """Fold journal records + shard files into the row table.

        Trust order: a valid shard is authoritative for "committed"
        (the journal may have lost the commit record in a crash); a
        commit record without its shard is *not* committed — the shard
        is the data.  Attempt counts and gave-ups replay from the
        journal so retry budgets persist across resumes.
        """
        for rec in records:
            ev = rec.get("ev")
            cell = rec.get("cell")
            if cell not in rows:
                continue
            row = rows[cell]
            if ev == "attempt":
                row.attempts = max(row.attempts, int(rec.get("attempt", 0)))
                row.failure_class = str(rec.get("class", ""))
                row.error = str(rec.get("error", ""))
            elif ev == "gave_up" and not reset_failures:
                row.state = "failed"
                row.failure_class = str(rec.get("class", row.failure_class))

        # Shards on disk are the ground truth for committed cells;
        # scan_shards quarantines any corrupt one as it goes.
        journaled = {
            rec.get("cell") for rec in records if rec.get("ev") == "commit"
        }
        for cell, _path, payload in scan_shards(self.dir / SHARD_DIR):
            if cell not in rows:
                log.warning("shard for unknown cell %s ignored", cell)
                continue
            row = rows[cell]
            row.state = "committed"
            row.sha256 = payload.get("sha256", "")
            if cell not in journaled:
                # Orphan shard: the crash hit between shard fsync and
                # journal append.  Adopt it.
                log.info("adopting orphan shard for cell %d", cell)
                journal.commit({
                    "ev": "commit", "cell": cell,
                    "sha256": row.sha256, "adopted": True,
                })
        # Commit records whose shard vanished/corrupted: back to pending.
        for rec in records:
            if rec.get("ev") != "commit":
                continue
            cell = rec.get("cell")
            if cell in rows and rows[cell].state != "committed":
                log.warning(
                    "cell %s has a journal commit but no valid shard; "
                    "re-executing", cell,
                )

    # ------------------------------------------------------------------
    def run(self, resume: bool = False,
            reset_failures: bool = False) -> CampaignOutcome:
        """Execute (or continue) the campaign; see the module docstring."""
        self._pin_spec()
        cells = self.spec.cells()
        rows: Dict[int, CellStatus] = {
            cell.index: CellStatus(
                index=cell.index, label=cell.label, key=cell.key_dict,
                rep=cell.rep, seed=cell.seed,
            )
            for cell in cells
        }
        by_index: Dict[int, CellSpec] = {c.index: c for c in cells}

        journal_path = self.dir / JOURNAL_FILE
        records, truncated = Journal.recover(journal_path)
        header = next((r for r in records if r.get("ev") == "campaign"), None)
        if header is not None and header.get("digest") != self.spec.digest():
            raise SpecMismatch(
                f"journal in {self.dir} was written by a different "
                f"campaign spec ({str(header.get('digest'))[:12]})"
            )
        if records and not resume:
            log.info(
                "campaign directory has prior state (%d journal records); "
                "continuing from the last committed shard", len(records),
            )

        runner = self._make_runner()
        interrupted = False
        with Journal(journal_path) as journal:
            if header is None:
                journal.commit({
                    "ev": "campaign",
                    "digest": self.spec.digest(),
                    "name": self.spec.name,
                    "cells": len(cells),
                    "version": repro.__version__,
                })
            self._recover_state(journal, records, rows, reset_failures)
            if reset_failures:
                for row in rows.values():
                    if row.state == "failed":
                        row.state = "pending"

            if self.spec.precision > 0.0:
                interrupted = self._run_precision(
                    journal, runner, cells, rows, records
                )
            else:
                pending = [by_index[i] for i in sorted(rows)
                           if rows[i].state == "pending"]
                rounds = 0
                while pending and not interrupted and rounds < MAX_ROUNDS:
                    rounds += 1
                    pending, interrupted = self._run_round(
                        journal, runner, pending, rows
                    )
                if rounds >= MAX_ROUNDS and pending:  # pragma: no cover
                    for cell in pending:
                        rows[cell.index].state = "failed"
                        rows[cell.index].failure_class = "rounds"

            row_list = [rows[i] for i in sorted(rows)]
            if interrupted:
                journal.append({
                    "ev": "interrupt",
                    "committed": sum(1 for r in row_list
                                     if r.state == "committed"),
                })
                log.warning(
                    "campaign interrupted; resume with: "
                    "campaign resume --dir %s", self.dir,
                )
                return CampaignOutcome(self.spec, row_list,
                                       exit_code=130, interrupted=True)

            merged_path = self._finalize(journal, row_list)
        return CampaignOutcome(
            self.spec, row_list,
            exit_code=self._exit_code(row_list),
            merged_path=merged_path,
        )

    # ------------------------------------------------------------------
    def _run_precision(
        self,
        journal: Journal,
        runner: Runner,
        cells: List[CellSpec],
        rows: Dict[int, CellStatus],
        records: List[Dict[str, Any]],
    ) -> bool:
        """Replication-round scheduling with sequential stopping.

        Instead of fanning out the whole grid × replication matrix at
        once, precision mode runs one *replication round* at a time —
        replication ``r`` across every still-active grid point — and
        re-evaluates each grid point's confidence intervals at every
        round boundary.  A grid point whose targeted metrics are all
        within the spec's relative half-width target stops replicating;
        its remaining cells are marked ``stopped`` and a ``stop`` record
        is fsync'd to the journal.  ``spec.replications`` is the hard
        cap; ``spec.min_reps`` is the floor below which no decision is
        taken.

        Stop decisions are a pure function of the committed shard set
        (the trackers re-fold from shards on resume, in the same
        rep-ascending order the live path commits in), so a resumed
        campaign reaches exactly the decisions an uninterrupted one
        does and the merged output stays byte-identical.  The journal
        records are an audit trail — recovery never replays them.
        """
        from repro.campaign.stats import evaluate_group
        from repro.telemetry.streaming import QuantileSketch

        spec = self.spec
        groups: Dict[str, List[CellSpec]] = {}
        order: List[str] = []
        for cell in cells:
            gid = _group_id(cell.key_dict)
            if gid not in groups:
                groups[gid] = []
                order.append(gid)
            groups[gid].append(cell)
        gid_of = {c.index: gid for gid, cs in groups.items() for c in cs}
        trackers: Dict[str, Dict[str, QuantileSketch]] = {
            gid: {} for gid in order
        }

        def fold(cell_index: int, value: Any) -> None:
            metrics = trackers[gid_of[cell_index]]
            for path, number in flatten_metrics(value):
                sketch = metrics.get(path)
                if sketch is None:
                    sketch = metrics[path] = QuantileSketch()
                sketch.observe(number)

        # Resume: re-fold committed shards (index order == rep order
        # within a group) so the trackers match the live fold exactly.
        for cell_idx, _path, payload in scan_shards(self.dir / SHARD_DIR):
            if cell_idx in gid_of and rows[cell_idx].state == "committed":
                fold(cell_idx, payload.get("value"))

        # Groups already stop-journaled by a previous invocation: the
        # decision is recomputed identically below, but the journal
        # record is not duplicated.
        prior_stops: Set[str] = {
            str(rec.get("group")) for rec in records
            if rec.get("ev") == "stop"
        }

        stopped: Set[str] = set()
        self._on_commit = fold
        try:
            for rep in range(spec.replications):
                for gid in order:
                    if gid in stopped:
                        continue
                    reps_done = sum(
                        1 for c in groups[gid]
                        if rows[c.index].state == "committed"
                    )
                    if reps_done < spec.min_reps:
                        continue
                    decision = evaluate_group(
                        trackers[gid], spec.precision, spec.confidence,
                        spec.precision_metrics,
                    )
                    worst_hw = (
                        round(decision.worst_rel_half_width, 9)
                        if math.isfinite(decision.worst_rel_half_width)
                        else None
                    )
                    journal.append({
                        "ev": "ci", "group": gid, "reps": reps_done,
                        "met": decision.met,
                        "worst_metric": decision.worst_metric,
                        "worst_rel_hw": worst_hw,
                    })
                    if not decision.met:
                        continue
                    stopped.add(gid)
                    stop_cells = [
                        c.index for c in groups[gid]
                        if rows[c.index].state == "pending"
                    ]
                    for idx in stop_cells:
                        rows[idx].state = "stopped"
                    if gid not in prior_stops:
                        journal.commit({
                            "ev": "stop", "group": gid,
                            "cells": stop_cells, "reps": reps_done,
                            "worst_metric": decision.worst_metric,
                            "worst_rel_hw": worst_hw,
                        })
                    log.info(
                        "group %s met precision %.3g after %d rep(s) "
                        "(worst %s rel hw %.3g); stopping %d cell(s)",
                        gid, spec.precision, reps_done,
                        decision.worst_metric,
                        decision.worst_rel_half_width, len(stop_cells),
                    )
                wave = [
                    groups[gid][rep] for gid in order
                    if gid not in stopped
                    and rows[groups[gid][rep].index].state == "pending"
                ]
                pending, rounds = wave, 0
                while pending and rounds < MAX_ROUNDS:
                    rounds += 1
                    pending, interrupted = self._run_round(
                        journal, runner, pending, rows
                    )
                    if interrupted:
                        return True
                if rounds >= MAX_ROUNDS and pending:  # pragma: no cover
                    for cell in pending:
                        rows[cell.index].state = "failed"
                        rows[cell.index].failure_class = "rounds"
        finally:
            self._on_commit = None
        return False

    # ------------------------------------------------------------------
    def _run_round(
        self,
        journal: Journal,
        runner: Runner,
        pending: List[CellSpec],
        rows: Dict[int, CellStatus],
    ):
        """One fan-out round; returns (cells to retry, interrupted).

        Cells execute in *waves* (a few multiples of the worker count)
        and each wave's results are checkpointed before the next wave
        launches, so a ``kill -9`` mid-round loses at most one wave of
        work rather than the whole round.
        """
        retry: List[CellSpec] = []
        delays: List[float] = []
        for wave in self._waves(pending):
            if not self._run_wave(journal, runner, wave, rows,
                                  retry, delays):
                break
        if runner.interrupted:
            for cell in retry:
                rows[cell.index].state = "pending"
            return [], True
        if retry and delays:
            delay = max(delays)
            log.info("backing off %.2fs before retrying %d cell(s)",
                     delay, len(retry))
            self.sleep(delay)
        return retry, False

    def _waves(self, pending: List[CellSpec]):
        from repro.runner.executor import default_jobs

        wave = self.checkpoint_wave or max(2 * (self.jobs or default_jobs()), 2)
        for start in range(0, len(pending), wave):
            yield pending[start:start + wave]

    def _run_wave(
        self,
        journal: Journal,
        runner: Runner,
        pending: List[CellSpec],
        rows: Dict[int, CellStatus],
        retry: List[CellSpec],
        delays: List[float],
    ) -> bool:
        """Execute + checkpoint one wave; False means stop (interrupted)."""
        results = runner.map([cell.to_run_spec() for cell in pending])
        for cell, result in zip(pending, results):
            row = rows[cell.index]
            if result.ok:
                if self._commit_cell(journal, cell, row, result.value):
                    continue
                # Shard write failed: retryable io failure (the result
                # itself is lost — without a checkpoint it never
                # happened; the cache makes the re-run cheap).
                failure_class, error = "io", row.error
            else:
                failure_class = classify_failure(result.error)
                error = result.error.error
            if failure_class == "interrupted":
                # Not charged: the cell goes back to pending untouched
                # and the next resume runs it for free.
                row.state = "pending"
                continue
            row.attempts += 1
            row.failure_class = failure_class
            row.error = error
            journal.append({
                "ev": "attempt", "cell": cell.index,
                "attempt": row.attempts, "class": failure_class,
                "error": error[:500],
            })
            if self.policy.should_retry(failure_class, row.attempts):
                retry.append(cell)
                delays.append(self.policy.backoff_s(cell.index, row.attempts))
            else:
                row.state = "failed"
                journal.append({
                    "ev": "gave_up", "cell": cell.index,
                    "attempts": row.attempts, "class": failure_class,
                })
                log.warning(
                    "cell %d (%s) gave up after %d attempt(s) [%s]",
                    cell.index, cell.label, row.attempts, failure_class,
                )
        return not runner.interrupted

    def _commit_cell(self, journal: Journal, cell: CellSpec,
                     row: CellStatus, value: Any) -> bool:
        """Checkpoint one result: shard first, then the journal record."""
        try:
            _path, sha = write_shard(
                self.dir / SHARD_DIR, cell.index, cell.key_dict,
                cell.rep, cell.seed, value,
            )
            journal.commit({"ev": "commit", "cell": cell.index,
                            "sha256": sha})
        except OSError as exc:
            row.error = f"checkpoint write failed: {exc}"
            log.warning("cell %d: %s", cell.index, row.error)
            return False
        row.state = "committed"
        row.sha256 = sha
        if self._on_commit is not None:
            self._on_commit(cell.index, value)
        return True

    # ------------------------------------------------------------------
    def _finalize(self, journal: Journal,
                  rows: List[CellStatus]) -> Optional[Path]:
        """Merge shards, write status, and close the journal with a footer."""
        committed = sum(1 for r in rows if r.state == "committed")
        failed = sum(1 for r in rows if r.state == "failed")
        stopped = [r.index for r in rows if r.state == "stopped"]

        reducer = CampaignReducer(confidence=self.spec.confidence)
        cell_index: List[Dict[str, Any]] = []
        for cell, _path, payload in scan_shards(self.dir / SHARD_DIR):
            reducer.fold(payload)
            cell_index.append({
                "cell": cell,
                "key": payload.get("key"),
                "rep": payload.get("rep"),
                "seed": payload.get("seed"),
                "sha256": payload.get("sha256"),
            })
        merged = {
            "campaign": self.spec.name,
            "digest": self.spec.digest(),
            "version": repro.__version__,
            "total_cells": len(rows),
            "committed": committed,
            # Stopped cells are a deliberate outcome, not a gap: they
            # are listed separately so consumers can tell "precise
            # enough to skip" from "never ran".
            "stopped_cells": stopped,
            "missing_cells": [r.index for r in rows
                              if r.state not in ("committed", "stopped")],
            "cells": cell_index,
            "groups": reducer.to_dict(),
        }
        if self.spec.precision > 0.0:
            merged["precision"] = {
                "target": self.spec.precision,
                "confidence": self.spec.confidence,
                "min_reps": self.spec.min_reps,
                "metrics": list(self.spec.precision_metrics),
            }
        merged_path = self.dir / MERGED_FILE
        atomic_write_text(
            merged_path,
            json.dumps(merged, sort_keys=True, separators=(",", ":")) + "\n",
        )
        status_doc = {
            "campaign": self.spec.name,
            "digest": self.spec.digest(),
            "cells": [r.to_dict() for r in rows],
        }
        atomic_write_text(
            self.dir / STATUS_FILE,
            json.dumps(status_doc, sort_keys=True, indent=1) + "\n",
        )
        journal.commit({
            "ev": "end", "committed": committed, "failed": failed,
            "stopped": len(stopped), "total": len(rows),
        })
        return merged_path

    def _exit_code(self, rows: List[CellStatus]) -> int:
        # A stopped cell is *complete*: the stopping rule proved the
        # grid point precise enough without it.
        done = sum(1 for r in rows if r.state in ("committed", "stopped"))
        if done == len(rows):
            return 0
        fraction = done / len(rows) if rows else 1.0
        if fraction < self.spec.min_complete:
            return 4
        return 3


# ----------------------------------------------------------------------
# Read-only status
# ----------------------------------------------------------------------
def campaign_status(directory: Union[str, Path]) -> CampaignStatus:
    """Inspect a campaign directory without mutating anything."""
    directory = Path(directory)
    warnings: List[str] = []
    spec: Optional[CampaignSpec] = None
    try:
        spec = CampaignSpec.from_json(str(directory / SPEC_FILE))
    except (OSError, ValueError) as exc:
        warnings.append(f"cannot load {SPEC_FILE}: {exc}")
        return CampaignStatus(directory, None, [], has_footer=False,
                              journal_truncated=False, corrupt_shards=0,
                              warnings=warnings)

    rows = {
        cell.index: CellStatus(
            index=cell.index, label=cell.label, key=cell.key_dict,
            rep=cell.rep, seed=cell.seed,
        )
        for cell in spec.iter_cells()
    }
    records, truncated = read_journal(directory / JOURNAL_FILE)
    if truncated:
        warnings.append(
            "journal has a torn/corrupt tail — records beyond the valid "
            "prefix were ignored (a crashed writer, or tampering)"
        )
    has_footer = any(rec.get("ev") == "end" for rec in records)
    if not has_footer:
        warnings.append(
            "journal has no terminal footer: the campaign is still "
            "running, was interrupted, or the journal was truncated — "
            "resume with `campaign resume` or treat results as partial"
        )
    for rec in records:
        ev = rec.get("ev")
        if ev == "stop":
            # Sequential-stopping decision: the listed cells were
            # deliberately never run.  Committed state still wins (a
            # stop record can race a commit only in a hand-edited
            # journal, but be conservative).
            for idx in rec.get("cells") or []:
                if idx in rows and rows[idx].state == "pending":
                    rows[idx].state = "stopped"
            continue
        cell = rec.get("cell")
        if cell not in rows:
            continue
        row = rows[cell]
        if ev == "attempt":
            row.attempts = max(row.attempts, int(rec.get("attempt", 0)))
            row.failure_class = str(rec.get("class", ""))
            row.error = str(rec.get("error", ""))
        elif ev == "commit":
            row.state = "committed"
            row.sha256 = str(rec.get("sha256", ""))
        elif ev == "gave_up":
            row.state = "failed"

    # Verify shards read-only: journal says committed, disk must agree.
    from repro.campaign.shards import ShardCorrupt, read_shard

    corrupt = 0
    for row in rows.values():
        if row.state != "committed":
            continue
        path = shard_path(directory / SHARD_DIR, row.index)
        try:
            read_shard(path)
        except ShardCorrupt as exc:
            corrupt += 1
            warnings.append(f"cell {row.index}: {exc}")
            row.state = "corrupt"
    return CampaignStatus(
        directory, spec, [rows[i] for i in sorted(rows)],
        has_footer=has_footer, journal_truncated=truncated,
        corrupt_shards=corrupt, warnings=warnings,
    )


def format_status(rows: List[CellStatus], title: str = "") -> str:
    """Render the per-cell status table as CLI text."""
    lines: List[str] = []
    if title:
        lines.append(f"# {title}")
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row.state] = counts.get(row.state, 0) + 1
    lines.append(
        "cells: " + ", ".join(f"{counts[s]} {s}" for s in sorted(counts))
    )
    lines.append(f"{'cell':>5} {'label':<40} {'state':>10} {'att':>4} "
                 f"{'class':>10}  error")
    for row in rows:
        lines.append(
            f"{row.index:>5} {row.label:<40.40} {row.state:>10} "
            f"{row.attempts:>4} {row.failure_class:>10}  "
            f"{row.error[:60]}"
        )
    return "\n".join(lines)
