"""Chaos-recovery harness: prove the campaign engine survives violence.

A test harness, not part of the package: ``tests/test_campaign_chaos.py``
drives it (``pytest tests/test_campaign_chaos.py``), and it reaches the
engine only through its public surface plus the kept
:func:`repro.runner.atomicio.set_fault_hook`.

Each chaos mode interrupts a small campaign a different way and asserts
the same contract: after recovery, ``merged.json`` is **byte-identical**
to the merged output of an uninterrupted reference run of the same
spec, and the status table records the retries/degradations honestly.

=============   ===========================================================
mode            injection
=============   ===========================================================
worker-kill     cells SIGKILL their own worker process on first attempt
sigint          the whole campaign process gets SIGINT mid-sweep (exit
                130), then ``campaign resume`` finishes it
kill9           the whole campaign process gets SIGKILL mid-sweep (torn
                journal tail is possible), then resume finishes it
corrupt-shard   a committed shard is truncated after the campaign
                finishes; resume quarantines it and re-executes the cell
disk-full       the first shard writes fail with ENOSPC (simulated via
                the atomic-IO fault hook); retry budgets absorb it
=============   ===========================================================

The worker-kill injection is driven by one-shot marker files in a spool
directory (``REPRO_CHAOS_DIR``): :func:`chaos_cell` renames its marker
*before* raising SIGKILL, so the retry of the same cell survives — the
deterministic metric value it returns is identical either way, which is
what makes the byte-compare meaningful.
"""

from __future__ import annotations

import errno
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.campaign.engine import (
    MERGED_FILE,
    SHARD_DIR,
    CampaignEngine,
    campaign_status,
)
from repro.campaign.spec import CampaignSpec
from repro.runner import atomicio
from repro.runner.spec import derive_seed
from repro.telemetry.logutil import get_logger

__all__ = [
    "CHAOS_ENV",
    "ChaosReport",
    "chaos_cell",
    "chaos_spec",
    "run_chaos",
    "ALL_MODES",
]

log = get_logger("repro.tests.chaos")

#: Environment variable pointing worker processes at the kill-marker spool.
CHAOS_ENV = "REPRO_CHAOS_DIR"

ALL_MODES = ("worker-kill", "sigint", "kill9", "corrupt-shard", "disk-full")


def chaos_cell(cell: int = 0, work_s: float = 0.0, seed: int = 1) -> Dict[str, Any]:
    """Deterministic toy cell with an optional self-inflicted SIGKILL.

    If ``$REPRO_CHAOS_DIR/kill-<cell>`` exists, the marker is renamed
    (one-shot) and the process raises SIGKILL against itself — the
    hardest possible worker death.  Otherwise the cell sleeps
    ``work_s`` (so a parent-kill harness has a window to strike) and
    returns metrics derived purely from ``(seed, cell)``.
    """
    spool = os.environ.get(CHAOS_ENV)
    if spool:
        marker = Path(spool) / f"kill-{cell}"
        if marker.exists():
            try:
                marker.rename(marker.with_name(marker.name + ".fired"))
            except OSError:
                pass
            os.kill(os.getpid(), signal.SIGKILL)
    if work_s > 0:
        time.sleep(work_s)
    value = derive_seed(seed, "chaos-metric", cell)
    return {
        "metric": value % 10_000,
        "latency_ms": (value % 997) / 10.0,
        "cell": cell,
    }


def chaos_spec(
    cells: int = 8,
    work_s: float = 0.0,
    replications: int = 1,
    base_seed: int = 7,
    backoff_base_s: float = 0.0,
) -> CampaignSpec:
    """A toy campaign over :func:`chaos_cell` (fast, fully deterministic)."""
    return CampaignSpec.make(
        name="chaos",
        fn="tests.chaos_harness:chaos_cell",
        grid={"cell": list(range(cells))},
        fixed={"work_s": float(work_s)},
        replications=replications,
        base_seed=base_seed,
        backoff_base_s=backoff_base_s,
        backoff_cap_s=0.2,
    )


@dataclass
class ChaosReport:
    """Outcome of one chaos mode."""

    mode: str
    ok: bool
    skipped: bool = False
    detail: str = ""

    def describe(self) -> str:
        verdict = "SKIP" if self.skipped else ("ok" if self.ok else "FAIL")
        return f"[{verdict:>4}] {self.mode}: {self.detail}"


# ----------------------------------------------------------------------
# Shared plumbing
# ----------------------------------------------------------------------
def _merged_bytes(directory: Union[str, Path]) -> bytes:
    return (Path(directory) / MERGED_FILE).read_bytes()


def _reference(spec: CampaignSpec, workdir: Path) -> bytes:
    """Uninterrupted reference run of ``spec``; returns merged bytes."""
    ref_dir = workdir / "ref"
    outcome = CampaignEngine(spec, ref_dir, jobs=2).run()
    if outcome.exit_code != 0:
        raise RuntimeError(
            f"reference campaign did not complete cleanly "
            f"(exit {outcome.exit_code})"
        )
    return _merged_bytes(ref_dir)


def _pools_usable() -> bool:
    """Can this platform run a process pool at all?"""
    from concurrent.futures import ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(abs, -1).result(timeout=60) == 1
    except Exception:
        return False


def _compare(mode: str, reference: bytes, candidate_dir: Path,
             detail: str) -> ChaosReport:
    candidate = _merged_bytes(candidate_dir)
    if candidate != reference:
        return ChaosReport(mode, ok=False,
                           detail=f"{detail}; merged output DIVERGED "
                                  f"from the uninterrupted reference")
    return ChaosReport(mode, ok=True,
                       detail=f"{detail}; merged output byte-identical "
                              f"to the uninterrupted reference")


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def _mode_worker_kill(workdir: Path) -> ChaosReport:
    mode = "worker-kill"
    if not _pools_usable():
        return ChaosReport(mode, ok=True, skipped=True,
                           detail="process pools unavailable here")
    spec = chaos_spec(cells=6)
    reference = _reference(spec, workdir)
    chaos_dir = workdir / "worker-kill"
    spool = workdir / "chaos-spool"
    spool.mkdir(parents=True, exist_ok=True)
    for cell in (0, 3):
        (spool / f"kill-{cell}").write_text("die\n")
    previous = os.environ.get(CHAOS_ENV)
    os.environ[CHAOS_ENV] = str(spool)
    try:
        outcome = CampaignEngine(spec, chaos_dir, jobs=2).run()
    finally:
        if previous is None:
            os.environ.pop(CHAOS_ENV, None)
        else:
            os.environ[CHAOS_ENV] = previous
    if outcome.exit_code != 0:
        return ChaosReport(mode, ok=False,
                           detail=f"campaign exit {outcome.exit_code} "
                                  f"after worker kills")
    crashed = [r for r in outcome.rows
               if r.attempts > 0 and r.failure_class == "crash"]
    if not crashed:
        return ChaosReport(mode, ok=False,
                           detail="no crash retries recorded in the "
                                  "status table — the kills missed")
    return _compare(mode, reference, chaos_dir,
                    f"{len(crashed)} worker kill(s) retried")


def _spawn_campaign(spec_file: Path, campaign_dir: Path,
                    work_s: float) -> subprocess.Popen:
    env = dict(os.environ)
    # The spawned campaign resolves ``tests.chaos_harness:chaos_cell``,
    # so it needs the repository root as well as ``src``.
    repo = Path(__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src"), str(repo)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.cli", "campaign", "run",
         str(spec_file), "--dir", str(campaign_dir),
         "--jobs", "2", "--no-cache"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,  # keep our own tty out of the signal path
    )


def _wait_for_first_shard(campaign_dir: Path, proc: subprocess.Popen,
                          timeout_s: float = 120.0) -> bool:
    """Block until at least one shard is committed (and not yet merged)."""
    shard_dir = campaign_dir / SHARD_DIR
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            return False  # finished (or died) before we could strike
        try:
            if any(name.endswith(".json")
                   for name in os.listdir(shard_dir)):
                return True
        except OSError:
            pass
        time.sleep(0.02)
    return False


def _mode_parent_signal(workdir: Path, mode: str, sig: int,
                        expect_rc: Optional[int],
                        attempts: int = 3) -> ChaosReport:
    """Signal the whole campaign process mid-sweep, then resume.

    The injection races the sweep: the signal can land after the last
    shard commits, in which case the campaign simply completes and
    there is no wound to recover from.  That is a lost race, not a
    recovery failure — it is retried (with a longer sweep each time)
    up to ``attempts`` times before being reported.
    """
    spec = chaos_spec(cells=10, work_s=0.35)
    reference = _reference(spec, workdir)
    spec_file = workdir / f"{mode}-spec.json"
    spec_file.write_text(spec.to_json() + "\n")

    report: Optional[ChaosReport] = None
    for attempt in range(attempts):
        chaos_dir = workdir / (mode if attempt == 0 else f"{mode}-{attempt}")
        chaos_dir.mkdir(parents=True, exist_ok=True)
        report = _strike_once(mode, sig, expect_rc, spec_file, chaos_dir,
                              reference)
        if report is not None:
            return report
        log.info("%s: the signal lost the race with completion; "
                 "retrying the injection", mode)
    return ChaosReport(mode, ok=False,
                       detail=f"signal lost the race with completion "
                              f"{attempts} times in a row")


def _strike_once(mode: str, sig: int, expect_rc: Optional[int],
                 spec_file: Path, chaos_dir: Path,
                 reference: bytes) -> Optional[ChaosReport]:
    """One injection attempt; ``None`` means the signal lost the race."""
    proc = _spawn_campaign(spec_file, chaos_dir, work_s=0.35)
    try:
        if not _wait_for_first_shard(chaos_dir, proc):
            if proc.poll() == 0:
                return None  # completed before the first poll saw a shard
            proc.kill()
            proc.wait(timeout=30)
            return ChaosReport(
                mode, ok=False,
                detail=f"campaign died (rc {proc.returncode}) before a "
                       f"mid-sweep signal could be delivered",
            )
        os.kill(proc.pid, sig)
        rc = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    wounded = campaign_status(chaos_dir)
    if rc == 0 and wounded.has_footer:
        return None  # clean completion: the signal landed too late
    if expect_rc is not None and rc != expect_rc:
        return ChaosReport(mode, ok=False,
                           detail=f"interrupted campaign exited {rc}, "
                                  f"expected {expect_rc}")
    # The wound: no terminal footer yet.
    if wounded.has_footer:
        return ChaosReport(mode, ok=False,
                           detail="journal already has a footer — the "
                                  "signal landed after completion")

    outcome = CampaignEngine.open(chaos_dir, jobs=2).run(resume=True)
    if outcome.exit_code != 0:
        return ChaosReport(mode, ok=False,
                           detail=f"resume exit {outcome.exit_code}")
    committed_before = sum(
        1 for r in wounded.rows if r.state == "committed"
    )
    return _compare(
        mode, reference, chaos_dir,
        f"killed mid-sweep (rc {rc}) with {committed_before} shard(s) "
        f"committed, resumed the remaining "
        f"{len(outcome.rows) - committed_before}",
    )


def _mode_corrupt_shard(workdir: Path) -> ChaosReport:
    mode = "corrupt-shard"
    spec = chaos_spec(cells=6)
    reference = _reference(spec, workdir)
    chaos_dir = workdir / mode
    outcome = CampaignEngine(spec, chaos_dir, jobs=1).run()
    if outcome.exit_code != 0:
        return ChaosReport(mode, ok=False,
                           detail=f"setup campaign exit {outcome.exit_code}")
    # Truncate one committed shard mid-payload.
    victim = sorted((chaos_dir / SHARD_DIR).glob("cell-*.json"))[1]
    blob = victim.read_bytes()
    victim.write_bytes(blob[: len(blob) // 2])

    status = campaign_status(chaos_dir)
    if status.exit_code != 4 or status.corrupt_shards != 1:
        return ChaosReport(mode, ok=False,
                           detail=f"status did not flag the corruption "
                                  f"(exit {status.exit_code}, "
                                  f"{status.corrupt_shards} corrupt)")
    outcome = CampaignEngine.open(chaos_dir, jobs=1).run(resume=True)
    if outcome.exit_code != 0:
        return ChaosReport(mode, ok=False,
                           detail=f"resume exit {outcome.exit_code}")
    quarantined = list((chaos_dir / SHARD_DIR).glob("*.corrupt"))
    if not quarantined:
        return ChaosReport(mode, ok=False,
                           detail="corrupt shard was not quarantined")
    return _compare(mode, reference, chaos_dir,
                    "truncated shard quarantined and re-executed")


def _mode_disk_full(workdir: Path) -> ChaosReport:
    mode = "disk-full"
    spec = chaos_spec(cells=4)
    reference = _reference(spec, workdir)
    chaos_dir = workdir / mode

    failures = {"remaining": 2}

    def enospc_hook(path: str) -> None:
        if SHARD_DIR in path and failures["remaining"] > 0:
            failures["remaining"] -= 1
            raise OSError(errno.ENOSPC, "No space left on device", path)

    atomicio.set_fault_hook(enospc_hook)
    try:
        outcome = CampaignEngine(spec, chaos_dir, jobs=1).run()
    finally:
        atomicio.set_fault_hook(None)
    if outcome.exit_code != 0:
        return ChaosReport(mode, ok=False,
                           detail=f"campaign exit {outcome.exit_code} "
                                  f"under simulated ENOSPC")
    io_retries = [r for r in outcome.rows
                  if r.attempts > 0 and r.failure_class == "io"]
    if not io_retries:
        return ChaosReport(mode, ok=False,
                           detail="no io retries recorded — the ENOSPC "
                                  "injection missed")
    return _compare(mode, reference, chaos_dir,
                    f"{len(io_retries)} ENOSPC shard write(s) retried")


# ----------------------------------------------------------------------
_MODE_FNS: Dict[str, Callable[[Path], ChaosReport]] = {
    "worker-kill": _mode_worker_kill,
    "sigint": lambda d: _mode_parent_signal(d, "sigint", signal.SIGINT, 130),
    "kill9": lambda d: _mode_parent_signal(d, "kill9", signal.SIGKILL, -9),
    "corrupt-shard": _mode_corrupt_shard,
    "disk-full": _mode_disk_full,
}


def run_chaos(
    workdir: Union[str, Path],
    modes: Optional[List[str]] = None,
) -> List[ChaosReport]:
    """Run the requested chaos modes; each gets a fresh subdirectory."""
    workdir = Path(workdir)
    reports: List[ChaosReport] = []
    for mode in modes or list(ALL_MODES):
        if mode not in _MODE_FNS:
            raise ValueError(
                f"unknown chaos mode {mode!r}; choose from {ALL_MODES}"
            )
        mode_dir = workdir / f"mode-{mode}"
        mode_dir.mkdir(parents=True, exist_ok=True)
        log.info("chaos mode %s starting under %s", mode, mode_dir)
        try:
            report = _MODE_FNS[mode](mode_dir)
        except Exception as exc:  # report the mode, keep running the rest
            report = ChaosReport(mode, ok=False,
                                 detail=f"harness error: "
                                        f"{type(exc).__name__}: {exc}")
        reports.append(report)
        log.info("%s", report.describe())
    return reports
