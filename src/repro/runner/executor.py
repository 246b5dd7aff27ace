"""Fan-out executor: run many independent specs, serially or in parallel.

Every experiment run in this repository is embarrassingly parallel — each
builds its own :class:`~repro.sim.engine.Simulator` and RNG streams from
an explicit seed, shares no state with its siblings, and is fully
deterministic.  The :class:`Runner` exploits that: specs fan out to a
``ProcessPoolExecutor`` and results are collected *in submission order*,
so the output of ``jobs=N`` is bit-identical to ``jobs=1``.

The pool is an optimisation, never a requirement: with ``jobs=1``, when
there is only one spec, or when process pools are unavailable on the
platform (no ``/dev/shm``, restricted sandbox, broken fork), execution
falls back to plain in-process calls with identical results.

The runner is also *fault tolerant*: one run raising, hanging past
``timeout_s``, or taking its worker process down does not abort the
sweep.  The casualty becomes a structured :class:`FailedResult` on its
:class:`RunResult` (``value=None``), timeouts and crashes get a bounded
number of retries (deterministic errors get none — rerunning the same
seed reproduces the same exception), and every surviving run completes
normally.  Failures are never cached.

Every settled run is passed on in spec order, as soon as it and every
run before it are final, to the run-record sinks of
:mod:`repro.runner.record` (``--manifest-out``, ``--progress``).

Each result carries :class:`RunMetrics` — wall time, events executed, and
events/sec — measured via the engine's process-wide event counter, so
perf regressions in the simulator hot path surface in every report run.
"""

from __future__ import annotations

import dataclasses
import math
import os
import signal as signal_module
import threading
import traceback as tb_module
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

from repro.runner.cache import ResultCache
from repro.runner.spec import RunSpec
from repro.telemetry.logutil import get_logger

__all__ = [
    "FailedResult",
    "RunMetrics",
    "RunResult",
    "Runner",
    "execute",
    "default_jobs",
]

_ENV_JOBS = "REPRO_JOBS"

log = get_logger("repro.runner")


def default_jobs() -> int:
    """Worker count: ``$REPRO_JOBS`` if set, else the CPU count."""
    env = os.environ.get(_ENV_JOBS, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


@dataclass(frozen=True)
class RunMetrics:
    """Cost accounting for one executed (or cached) run."""

    wall_s: float
    events: int
    cached: bool = False
    #: Peak heap during the run (bytes, via tracemalloc); 0 when the
    #: runner was not profiling.
    peak_heap_bytes: int = 0
    #: Wall seconds of post-run finalize work (trace decode, summaries,
    #: file writes) included in ``wall_s`` — the split the ``--profile``
    #: run-cost table reports as ``sim s`` vs ``post s``.
    finalize_s: float = 0.0

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def sim_wall_s(self) -> float:
        """Wall time net of finalize work (the simulation itself)."""
        return max(0.0, self.wall_s - self.finalize_s)


@dataclass(frozen=True)
class FailedResult:
    """Structured record of a run that produced no value.

    ``phase`` says how it died:

    * ``"error"`` — the experiment function raised (deterministic; never
      retried);
    * ``"timeout"`` — the run exceeded the runner's ``timeout_s``;
    * ``"crash"`` — the worker process died under it (segfault, OOM
      kill, ``os._exit``);
    * ``"interrupted"`` — the *runner* was stopped by SIGINT/SIGTERM
      (graceful mode) before this run could finish; the run itself is
      innocent and re-executes for free on the next invocation.
    """

    spec: RunSpec
    phase: str
    error: str
    traceback: str = ""
    attempts: int = 1
    #: What the run knew when it raised (phase ``"error"`` only), from
    #: :func:`repro.telemetry.flightrec.evidence` in the process that
    #: raised; ``None`` when no testbed was registered.
    evidence: Optional[Dict[str, Any]] = None

    def describe(self) -> str:
        return f"[{self.phase}] {self.spec.label}: {self.error}"


@dataclass(frozen=True)
class RunResult:
    """A spec, its return value, and what it cost to produce.

    ``value`` is ``None`` (and ``error`` carries the post-mortem) for
    runs that failed; check :attr:`ok` before consuming the value.
    """

    spec: RunSpec
    value: Any
    metrics: RunMetrics
    error: Optional[FailedResult] = None

    @property
    def ok(self) -> bool:
        return self.error is None


#: What one spec's execution produced: (value, metrics) or a post-mortem.
_Outcome = Union[Tuple[Any, RunMetrics], FailedResult]


def _run_spec(
    spec: RunSpec, profile: bool = False
) -> Tuple[Any, RunMetrics]:
    """Run one spec in this process, measuring wall time and events.

    With ``profile=True`` the run also records its peak heap (via
    :class:`repro.telemetry.profiling.RunProfiler` / tracemalloc), at the
    cost of slower allocation — so profiling is opt-in per runner.
    """
    from repro.telemetry.profiling import RunProfiler

    with RunProfiler(track_heap=profile) as profiler:
        value = spec.call()
    return value, RunMetrics(
        wall_s=profiler.wall_s,
        events=profiler.events,
        peak_heap_bytes=profiler.peak_heap_bytes or 0,
        finalize_s=profiler.finalize_s,
    )


def _execute_spec(spec: RunSpec, profile: bool = False) -> _Outcome:
    """:func:`_run_spec`, with an exception turned into its post-mortem.

    The failure is built here, in the process that raised — a pool
    worker or the runner's own — so the evidence the dying run's testbed
    holds (ring tail, watchdog and streaming state) travels with it,
    across the pool boundary by pickling.
    """
    from repro.telemetry import flightrec

    flightrec.register(None)  # an earlier run's testbed is not evidence
    try:
        return _run_spec(spec, profile)
    except Exception as exc:
        return _error_result(spec, exc, flightrec.evidence())


def _error_result(
    spec: RunSpec, exc: BaseException, evidence: Optional[Dict[str, Any]]
) -> FailedResult:
    """The phase ``"error"`` post-mortem of a run that raised ``exc``."""
    return FailedResult(
        spec=spec,
        phase="error",
        error=f"{type(exc).__name__}: {exc}",
        traceback="".join(
            tb_module.format_exception(type(exc), exc, exc.__traceback__)),
        evidence=evidence,
    )


class _Settled(dict):
    """Batch outcomes by index, each passed on as it becomes final."""

    def __init__(self, settle: Callable[[int, _Outcome], None]) -> None:
        super().__init__()
        self._settle = settle

    def __setitem__(self, index: int, outcome: _Outcome) -> None:
        super().__setitem__(index, outcome)
        self._settle(index, outcome)


def _canary() -> int:
    """Trivial probe task proving the pool machinery itself works."""
    return 42


def _pool_worker_init() -> None:
    """Reset signal dispositions in freshly forked pool workers.

    Forked workers inherit the parent's graceful SIGTERM handler, which
    raises KeyboardInterrupt — inside a worker that just produces a
    noisy traceback when the parent terminates it during a drain.
    Workers should die quietly on SIGTERM (default action) and leave
    SIGINT handling to the parent (ignore: a terminal Ctrl-C signals
    the whole foreground process group, and the parent already
    terminates its workers as part of the graceful drain).
    """
    try:
        signal_module.signal(signal_module.SIGTERM, signal_module.SIG_DFL)
        signal_module.signal(signal_module.SIGINT, signal_module.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platform
        pass


@dataclass
class Runner:
    """Executes :class:`RunSpec` batches with caching and a process pool.

    Parameters
    ----------
    jobs:
        Maximum worker processes.  ``None`` means :func:`default_jobs`;
        ``1`` forces in-process execution (no pool, no pickling).
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching entirely.
    timeout_s:
        Per-run wall-clock budget, enforced on the pool path (an
        in-process run cannot be interrupted from within; with
        ``jobs=1`` the budget is not enforced).  A worker stuck past it
        is terminated and the run fails with phase ``"timeout"``.  Must
        be finite and > 0 (``ValueError`` otherwise): a zero, negative
        or NaN budget would time out every run the moment it starts.
    retries:
        How many times a timed-out or crashed run is retried (in a
        fresh pool) before its :class:`FailedResult` is final.  Runs
        that *raise* are never retried — same seed, same exception.

    When ``jobs`` exceeds the machine's CPU count the runner falls back
    to serial in-process execution instead of oversubscribing: on a
    CPU-bound workload extra workers only add pool overhead (a
    scaled-down report ran at 0.88x with jobs=2 on one core).  The
    fallback is skipped when ``timeout_s`` is set, because only the pool
    path can enforce the budget.  The original request stays visible as
    :attr:`requested_jobs`.
    """

    jobs: Optional[int] = None
    cache: Optional[ResultCache] = None
    #: Track per-run peak heap via tracemalloc (slower; opt-in).
    profile: bool = False
    timeout_s: Optional[float] = None
    retries: int = 1
    #: Graceful SIGINT/SIGTERM: instead of an uncaught KeyboardInterrupt
    #: tearing through mid-batch, the runner cancels queued work, puts
    #: down in-flight workers, marks unfinished runs with phase
    #: ``"interrupted"``, flushes the manifest, and returns — the caller
    #: checks :attr:`interrupted` and exits 130.  SIGTERM is mapped onto
    #: the same path so ``kill <pid>`` drains identically to Ctrl-C.
    graceful_signals: bool = False
    #: Redraw one stderr status line as each run settles (``--progress``).
    progress: bool = False
    #: JSONL run record appended per map() call (``--manifest-out``).
    manifest_path: Optional[str] = None
    #: The job count asked for, before any auto-serial fallback.
    requested_jobs: int = field(default=0, init=False)
    #: Set after each map(): True when the last batch used the pool.
    used_pool: bool = field(default=False, init=False)
    #: True once a graceful SIGINT/SIGTERM stopped a batch early.
    interrupted: bool = field(default=False, init=False)
    #: Every RunResult produced by this runner, across all map() calls —
    #: the raw material for run-cost reporting.
    history: List[RunResult] = field(default_factory=list, init=False)
    #: Cached canary-probe verdict (None until first needed).
    _pools_usable: Optional[bool] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if self.timeout_s is not None and not 0 < self.timeout_s < math.inf:
            raise ValueError(
                f"timeout_s must be finite and > 0, got {self.timeout_s}")
        if self.jobs is None:
            self.jobs = default_jobs()
        self.jobs = max(1, int(self.jobs))
        self.retries = max(0, int(self.retries))
        self.requested_jobs = self.jobs
        cpus = os.cpu_count() or 1
        if self.jobs > cpus and self.timeout_s is None:
            log.warning(
                "jobs=%d exceeds the %d available CPU(s); "
                "oversubscribed pools run slower than serial on this "
                "workload — falling back to in-process execution",
                self.jobs, cpus,
            )
            self.jobs = 1

    # ------------------------------------------------------------------
    @property
    def execution_mode(self) -> str:
        """How this runner executes: 'parallel', 'serial', or
        'serial (auto)' when the CPU-count fallback demoted a parallel
        request."""
        if self.jobs > 1:
            return "parallel"
        if self.requested_jobs > 1:
            return "serial (auto)"
        return "serial"

    @property
    def failures(self) -> List[FailedResult]:
        """Post-mortems of every failed run this runner has seen."""
        return [r.error for r in self.history if r.error is not None]

    # ------------------------------------------------------------------
    def map(self, specs: Iterable[RunSpec]) -> List[RunResult]:
        """Execute every spec, returning results in spec order.

        Failed runs yield a :class:`RunResult` with ``value=None`` and
        ``error`` set; they are never written to the cache, so a later
        invocation retries them from scratch.  Each result reaches the
        cache and the run-record sinks as soon as it and every earlier
        spec's result are final, so a killed sweep keeps what finished.
        """
        specs = list(specs)
        results: List[Optional[RunResult]] = [None] * len(specs)
        pending: List[Tuple[int, RunSpec]] = []
        for index, spec in enumerate(specs):
            results[index] = self._cached(spec)
            if results[index] is None:
                pending.append((index, spec))
        sinks = self._open_sinks(len(specs), len(specs) - len(pending))
        written = 0

        def flush() -> None:
            nonlocal written
            while written < len(results) and results[written] is not None:
                for sink in sinks:
                    sink.record_result(results[written])
                written += 1

        def settle(k: int, outcome: _Outcome) -> None:
            index, spec = pending[k]
            results[index] = self._result(spec, outcome)
            flush()

        complete = False
        restore_term = self._install_sigterm_handler()
        try:
            flush()
            self._execute_batch([spec for _, spec in pending], settle)
            complete = True
        finally:
            restore_term()
            for sink in sinks:
                sink.close(footer=complete)
        self.history.extend(results)  # type: ignore[arg-type]
        return results  # type: ignore[return-value]

    def run_values(self, specs: Iterable[RunSpec]) -> List[Any]:
        """Like :meth:`map` but returning just the run values.

        Failed runs contribute ``None`` — callers that cannot tolerate
        holes should use :meth:`map` and check :attr:`RunResult.ok`.
        """
        return [result.value for result in self.map(specs)]

    def _cached(self, spec: RunSpec) -> Optional[RunResult]:
        if self.cache is None:
            return None
        hit, payload = self.cache.get(spec)
        if not hit:
            return None
        stored = payload.get("metrics")
        metrics = RunMetrics(
            wall_s=getattr(stored, "wall_s", 0.0),
            events=getattr(stored, "events", 0),
            cached=True,
            peak_heap_bytes=getattr(stored, "peak_heap_bytes", 0),
            finalize_s=getattr(stored, "finalize_s", 0.0),
        )
        return RunResult(spec, payload["value"], metrics)

    def _result(self, spec: RunSpec, outcome: _Outcome) -> RunResult:
        if isinstance(outcome, FailedResult):
            log.warning("run failed %s", outcome.describe())
            return RunResult(spec, None, RunMetrics(wall_s=0.0, events=0),
                             error=outcome)
        value, metrics = outcome
        if self.cache is not None:
            self.cache.put(spec, value, metrics)
        return RunResult(spec, value, metrics)

    def _open_sinks(self, total: int, cached: int) -> list:
        """The run-record consumers of one map() call (none when empty)."""
        from repro.runner.record import ManifestWriter, ProgressLine

        sinks: list = []
        if total and self.manifest_path is not None:
            sinks.append(ManifestWriter(self.manifest_path).open(
                specs=total, mode=self.execution_mode, jobs=self.jobs))
        if total and self.progress:
            sinks.append(ProgressLine(total, cached))
        return sinks

    # ------------------------------------------------------------------
    # Graceful interruption (SIGINT / SIGTERM)
    # ------------------------------------------------------------------
    def _install_sigterm_handler(self):
        """Map SIGTERM onto KeyboardInterrupt for the current batch.

        SIGINT already raises KeyboardInterrupt; routing SIGTERM through
        the same exception gives ``kill <pid>`` the same graceful drain.
        Returns a restore callable; a no-op off the main thread or when
        graceful mode is off.
        """
        if (not self.graceful_signals
                or threading.current_thread() is not threading.main_thread()):
            return lambda: None

        def _on_term(signum, frame):
            raise KeyboardInterrupt

        try:
            previous = signal_module.signal(signal_module.SIGTERM, _on_term)
        except (ValueError, OSError):  # pragma: no cover - exotic platform
            return lambda: None
        return lambda: signal_module.signal(signal_module.SIGTERM, previous)

    def _interrupted_result(self, spec: RunSpec) -> FailedResult:
        return FailedResult(
            spec=spec,
            phase="interrupted",
            error="runner stopped by SIGINT/SIGTERM before this run "
                  "finished",
        )

    # ------------------------------------------------------------------
    def _execute_batch(
        self,
        specs: Sequence[RunSpec],
        settle: Callable[[int, _Outcome], None],
    ) -> None:
        """Run ``specs``, passing each final outcome to ``settle``."""
        if not specs:
            return
        outcomes = _Settled(settle)
        self.used_pool = False
        if self.jobs > 1 and len(specs) > 1:
            try:
                self._execute_pool(specs, outcomes)
                return
            except (BrokenProcessPool, OSError, ImportError, NotImplementedError):
                # Pools need working fork/spawn + shared semaphores; fall
                # back to in-process execution rather than failing the run.
                self.used_pool = False
        for index, spec in enumerate(specs):
            if index in outcomes:
                continue
            try:
                outcome = _execute_spec(spec, self.profile)
            except KeyboardInterrupt:
                if not self.graceful_signals:
                    raise
                log.warning("interrupted; draining %d unfinished run(s)",
                            len(specs) - index)
                self.interrupted = True
                for k in range(index, len(specs)):
                    outcomes[k] = self._interrupted_result(specs[k])
                return
            outcomes[index] = outcome

    # ------------------------------------------------------------------
    # Pool execution with per-run timeouts and crash containment
    # ------------------------------------------------------------------
    def _execute_pool(self, specs: Sequence[RunSpec], outcomes: dict) -> None:
        """Run ``specs`` on a process pool, absorbing per-run casualties.

        Timed-out and crashed runs are retried (up to ``retries`` times
        each) in a fresh pool alongside any innocent victims a dead
        worker took down with it; whatever still fails is returned as a
        :class:`FailedResult` in place.  Raises ``BrokenProcessPool``
        only when the *first* pass produced nothing at all — the signal
        that pools simply do not work on this platform, which the caller
        turns into the in-process fallback.
        """
        attempts = [0] * len(specs)
        items = list(range(len(specs)))
        first_pass = True
        try:
            while items:
                items = self._pool_pass(specs, items, outcomes, attempts,
                                        first_pass)
                first_pass = False
        except KeyboardInterrupt:
            if not self.graceful_signals:
                raise
            self.interrupted = True
            unfinished = [i for i in range(len(specs)) if i not in outcomes]
            log.warning("interrupted; draining %d unfinished run(s)",
                        len(unfinished))
            for i in unfinished:
                outcomes[i] = self._interrupted_result(specs[i])
        self.used_pool = True

    def _pool_pass(
        self,
        specs: Sequence[RunSpec],
        items: List[int],
        outcomes: dict,
        attempts: List[int],
        first_pass: bool,
    ) -> List[int]:
        """One pool generation; returns the indices to run again."""
        workers = min(self.jobs, len(items))
        pool = ProcessPoolExecutor(max_workers=workers,
                                   initializer=_pool_worker_init)
        try:
            # Submission order == collection order: determinism does not
            # depend on which worker finishes first.
            futures = {
                i: pool.submit(_execute_spec, specs[i], self.profile)
                for i in items
            }
        except BaseException:
            pool.shutdown(wait=False)
            raise

        try:
            return self._collect_pass(
                pool, specs, items, futures, outcomes, attempts, first_pass
            )
        except KeyboardInterrupt:
            # Graceful drain: cancel everything queued, put down the
            # in-flight workers, and let _execute_pool mark unfinished
            # runs as interrupted.  (Re-raised regardless; the caller
            # decides whether graceful mode applies.)
            workers_alive = list(
                (getattr(pool, "_processes", None) or {}).values()
            )
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in workers_alive:
                proc.terminate()
            raise

    def _collect_pass(
        self,
        pool: "ProcessPoolExecutor",
        specs: Sequence[RunSpec],
        items: List[int],
        futures: dict,
        outcomes: dict,
        attempts: List[int],
        first_pass: bool,
    ) -> List[int]:
        resubmit: List[int] = []
        pool_broken = False
        stuck_workers = False
        for i in items:
            spec = specs[i]
            try:
                outcome = futures[i].result(timeout=self.timeout_s)
                if isinstance(outcome, FailedResult):
                    outcome = dataclasses.replace(
                        outcome, attempts=attempts[i] + 1)
                outcomes[i] = outcome
            except FutureTimeoutError:
                stuck_workers = True
                futures[i].cancel()
                self._charge_failure(
                    spec, i, outcomes, attempts, resubmit,
                    phase="timeout",
                    error=f"run exceeded the {self.timeout_s}s budget",
                )
            except BrokenProcessPool:
                if (first_pass and not outcomes and not pool_broken
                        and not self._probe_pool()):
                    # Nothing settled yet AND a trivial canary task cannot
                    # run either: pools are unusable on this platform.
                    # Re-raise so the caller falls back to in-process
                    # execution.  (If the canary passes, the dead worker
                    # was killed by the spec itself — running that spec
                    # in-process would take down the main interpreter,
                    # so it is charged as a crash instead.)
                    pool.shutdown(wait=False)
                    raise
                if pool_broken:
                    # An innocent victim of the culprit's dead worker:
                    # resubmit without charging its retry budget.
                    resubmit.append(i)
                else:
                    # First casualty in collection order: the run the
                    # dying worker was executing.
                    pool_broken = True
                    self._charge_failure(
                        spec, i, outcomes, attempts, resubmit,
                        phase="crash",
                        error="worker process died while running this spec",
                    )
            except Exception as exc:
                # The worker could not send its outcome back (e.g. an
                # unpicklable value): deterministic, so never retried.
                outcomes[i] = _error_result(spec, exc, None)

        # Snapshot worker handles first: shutdown() clears the attribute.
        workers_alive = list((getattr(pool, "_processes", None) or {}).values())
        return self._finish_pass(pool, resubmit, stuck_workers, workers_alive)

    def _probe_pool(self) -> bool:
        """True when a fresh one-worker pool can run a trivial task."""
        if self._pools_usable is None:
            try:
                with ProcessPoolExecutor(max_workers=1) as probe:
                    self._pools_usable = (
                        probe.submit(_canary).result(timeout=60) == 42
                    )
            except Exception:
                self._pools_usable = False
        return self._pools_usable

    def _finish_pass(
        self,
        pool: "ProcessPoolExecutor",
        resubmit: List[int],
        stuck_workers: bool,
        workers_alive: list,
    ) -> List[int]:
        pool.shutdown(wait=False, cancel_futures=True)
        if stuck_workers:
            # Workers wedged on timed-out runs never pick up new tasks
            # and would block interpreter exit; put them down.
            for proc in workers_alive:
                proc.terminate()
        return resubmit

    def _charge_failure(
        self,
        spec: RunSpec,
        index: int,
        outcomes: dict,
        attempts: List[int],
        resubmit: List[int],
        phase: str,
        error: str,
    ) -> None:
        """Record a retryable failure: resubmit within budget, else final."""
        attempts[index] += 1
        if attempts[index] <= self.retries:
            log.warning(
                "run %s %s (attempt %d/%d); retrying",
                spec.label, phase, attempts[index], self.retries + 1,
            )
            resubmit.append(index)
        else:
            outcomes[index] = FailedResult(
                spec=spec, phase=phase, error=error,
                attempts=attempts[index],
            )


def execute(specs: Iterable[RunSpec], runner: Optional[Runner] = None) -> List[Any]:
    """Run specs through ``runner``, or serially in-process when ``None``.

    ``Experiment.run`` and the validation drivers call it: with no
    runner, specs run as a plain serial loop — same process, same order,
    no cache, and an exception propagates instead of becoming a
    :class:`FailedResult`.
    """
    if runner is None:
        return [_run_spec(spec)[0] for spec in specs]
    return runner.run_values(specs)
