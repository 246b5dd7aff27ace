"""Parallel experiment runner: declarative specs, fan-out, result cache.

The experiments that rebuild the paper's tables and figures are grids of
independent simulation runs (scheme × scenario × seed).  This package
turns each run into a :class:`RunSpec`, executes batches of them through
a :class:`Runner` — in-process or across a process pool, with bit-identical
output either way — and memoises results on disk via :class:`ResultCache`
so regenerating a report only simulates what changed.

Typical use::

    from repro.runner import ResultCache, Runner
    from repro.experiments.registry import BY_ID

    runner = Runner(jobs=4, cache=ResultCache())
    results = BY_ID["fig04"].run(runner=runner)   # 4 schemes, fanned out
"""

from repro.runner.atomicio import atomic_write_bytes
from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.executor import (
    FailedResult,
    RunMetrics,
    RunResult,
    Runner,
    default_jobs,
    execute,
)
from repro.runner.record import ManifestWriter, read_manifest
from repro.runner.spec import RunSpec, canonical, code_fingerprint, spec_digest

__all__ = [
    "FailedResult",
    "ManifestWriter",
    "ResultCache",
    "RunMetrics",
    "RunResult",
    "RunSpec",
    "Runner",
    "atomic_write_bytes",
    "canonical",
    "code_fingerprint",
    "default_cache_dir",
    "default_jobs",
    "execute",
    "read_manifest",
    "spec_digest",
]
