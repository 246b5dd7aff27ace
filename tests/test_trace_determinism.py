"""Trace determinism: identical traces serial vs parallel, fresh vs cached.

The runner's contract is that ``jobs=N`` output is bit-identical to
``jobs=1``; telemetry must not weaken it.  Trace records include
process-global packet/flow ids, so the testbed restarts those counters
per run — these tests are the regression net for that.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import airtime_udp
from repro.mac.ap import Scheme
from repro.runner import ResultCache, Runner
from repro.telemetry import TelemetryConfig
from repro.validation import catalogue

SCHEMES = (Scheme.FIFO, Scheme.AIRTIME)


def _specs(out_dir: Path):
    telemetry = TelemetryConfig(trace_path=str(out_dir),
                                metrics_path=str(out_dir))
    return airtime_udp.specs(SCHEMES, duration_s=0.6, warmup_s=0.3,
                             telemetry=telemetry)


def _trace_texts(out_dir: Path) -> dict:
    return {
        path.name: path.read_text()
        for path in sorted(out_dir.glob("*.trace.jsonl"))
    }


def test_serial_and_parallel_traces_identical(tmp_path):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"

    serial = Runner(jobs=1, cache=None).run_values(_specs(serial_dir))
    parallel = Runner(jobs=2, cache=None).run_values(_specs(parallel_dir))

    serial_traces = _trace_texts(serial_dir)
    parallel_traces = _trace_texts(parallel_dir)
    assert serial_traces  # the runs actually traced something
    assert set(serial_traces) == set(parallel_traces)
    for name in serial_traces:
        assert serial_traces[name] == parallel_traces[name], name

    # The in-result summaries agree too (modulo the output paths).
    for a, b in zip(serial, parallel):
        sa = {k: v for k, v in a.telemetry.items() if not k.endswith("_path")}
        sb = {k: v for k, v in b.telemetry.items() if not k.endswith("_path")}
        assert sa == sb


def test_back_to_back_serial_runs_identical(tmp_path):
    """Packet/flow counters restart per testbed, so a second in-process
    run of the same spec produces a byte-identical trace."""
    first_dir = tmp_path / "first"
    second_dir = tmp_path / "second"
    Runner(jobs=1, cache=None).run_values(_specs(first_dir))
    Runner(jobs=1, cache=None).run_values(_specs(second_dir))
    assert _trace_texts(first_dir) == _trace_texts(second_dir)


def test_cached_run_replays_fresh_telemetry_summary(tmp_path):
    cache = ResultCache(root=str(tmp_path / "cache"))
    out_dir = tmp_path / "traces"

    fresh = Runner(jobs=1, cache=cache).run_values(_specs(out_dir))
    assert cache.misses == len(SCHEMES)

    runner = Runner(jobs=1, cache=cache)
    cached = runner.run_values(_specs(out_dir))
    assert cache.hits == len(SCHEMES)
    assert all(result.metrics.cached for result in runner.history)

    for a, b in zip(fresh, cached):
        assert a.telemetry == b.telemetry
        assert a.airtime_shares == b.airtime_shares


def _impaired_specs(out_dir: Path):
    """Traced, fault-injected, strict specs (category ``fault`` included)."""
    telemetry = TelemetryConfig(trace_path=str(out_dir),
                                metrics_path=str(out_dir))
    return airtime_udp.specs(SCHEMES, duration_s=0.6, warmup_s=0.3,
                             telemetry=telemetry,
                             faults=catalogue.IMPAIRMENTS,
                             strict=True)


def test_impaired_run_deterministic_serial_parallel_cached(tmp_path):
    """Fault injection must not weaken the bit-identical contract: the
    same impaired spec produces byte-identical traces serial vs parallel,
    and a cached replay returns the identical result."""
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    cache = ResultCache(root=str(tmp_path / "cache"))

    serial = Runner(jobs=1, cache=cache).run_values(_impaired_specs(serial_dir))
    parallel = Runner(jobs=2, cache=None).run_values(
        _impaired_specs(parallel_dir)
    )

    serial_traces = _trace_texts(serial_dir)
    parallel_traces = _trace_texts(parallel_dir)
    assert serial_traces and set(serial_traces) == set(parallel_traces)
    for name in serial_traces:
        assert serial_traces[name] == parallel_traces[name], name
    # The impairments actually fired and were traced.
    assert any('"category": "fault"' in text or '"fault"' in text
               for text in serial_traces.values())

    for a, b in zip(serial, parallel):
        assert a.airtime_shares == b.airtime_shares
        assert a.conservation == b.conservation and a.conservation.ok
        assert a.fault_summary == b.fault_summary
        assert a.fault_summary["detaches"] == 1

    cached = Runner(jobs=1, cache=cache).run_values(_impaired_specs(serial_dir))
    assert cache.hits == len(SCHEMES)
    for a, b in zip(serial, cached):
        assert a == b


def test_ring_backend_traces_byte_identical_to_dict_backend(tmp_path,
                                                            monkeypatch):
    """The columnar ring backend must not change a single trace byte:
    the same traced fig05 specs, re-run with the legacy dict backend
    forced, produce identical ``*.trace.jsonl`` files and telemetry
    summaries (spans + ledger included)."""
    import functools

    import repro.telemetry as telemetry_pkg
    from repro.telemetry.trace import TraceBus

    ring_dir = tmp_path / "ring"
    dict_dir = tmp_path / "dict"

    def _spans_specs(out_dir: Path):
        telemetry = TelemetryConfig(trace_path=str(out_dir), spans=True,
                                    ledger=True)
        return airtime_udp.specs(SCHEMES, duration_s=0.6, warmup_s=0.3,
                                 telemetry=telemetry)

    ring_results = Runner(jobs=1, cache=None).run_values(_spans_specs(ring_dir))
    assert telemetry_pkg.TraceBus().backend == "ring"  # the default

    monkeypatch.setattr(telemetry_pkg, "TraceBus",
                        functools.partial(TraceBus, backend="dict"))
    dict_results = Runner(jobs=1, cache=None).run_values(_spans_specs(dict_dir))

    ring_traces = _trace_texts(ring_dir)
    dict_traces = _trace_texts(dict_dir)
    assert ring_traces and set(ring_traces) == set(dict_traces)
    for name in ring_traces:
        assert ring_traces[name] == dict_traces[name], name

    for a, b in zip(ring_results, dict_results):
        sa = {k: v for k, v in a.telemetry.items() if not k.endswith("_path")}
        sb = {k: v for k, v in b.telemetry.items() if not k.endswith("_path")}
        assert sa == sb
        assert "spans" in sa  # the attribution actually ran


def test_traced_and_untraced_runs_use_distinct_cache_entries(tmp_path):
    cache = ResultCache(root=str(tmp_path / "cache"))
    untraced = airtime_udp.specs(SCHEMES, duration_s=0.6, warmup_s=0.3)

    Runner(jobs=1, cache=cache).run_values(untraced)
    results = Runner(jobs=1, cache=cache).run_values(_specs(tmp_path / "t"))

    # The traced specs were not satisfied from the untraced entries.
    assert cache.misses == 2 * len(SCHEMES)
    assert all(result.telemetry is not None for result in results)


# ----------------------------------------------------------------------
# Pinned trace digests
# ----------------------------------------------------------------------
# The ring-vs-dict test above runs the same instrumentation-site code on
# both backends, so it cannot see a site whose declared field order or
# kind changed.  Each traced catalogue entry's pin holds the sha256 of
# its full all-category JSONL; re-record one with
# ``validate refresh --only NAME``.
ROAM_BACK = "campus-roam-back/AIRTIME"
TRACE_PINNED = [name for name in catalogue.traced_names()
                if name != ROAM_BACK]  # checked with its roam log below


@pytest.mark.parametrize("name", TRACE_PINNED)
def test_trace_bytes_match_pinned_digest(name):
    assert catalogue.trace_digest(catalogue.run_traced(name)) == \
        catalogue.load(name)["digests"]["trace"]


def test_roam_away_and_back_trace_matches_pinned_digest():
    campus = catalogue.run_traced(ROAM_BACK)
    assert [(src, dst) for _, _, src, dst, _ in campus.roam_log] == \
        [(0, 1), (1, 0)]
    assert catalogue.trace_digest(campus) == \
        catalogue.load(ROAM_BACK)["digests"]["trace"]


def test_per_packet_records_never_ride_the_generic_path():
    """Generic ``emit(**fields)`` is for O(1)-per-run markers: doubling
    the duration of a traced Airtime Fig. 5 run must not add a single
    record to the shapes bound through ``emit(**fields)``, read from the
    bus's generic-emitter cache."""
    def total_and_generic_records(duration_scale: float):
        testbed = catalogue.run_traced("udp/AIRTIME", duration_scale)
        bus = testbed.telemetry.trace
        generic = {(category, event, tuple(zip(names, kinds)))
                   for category, event, names, kinds in bus._generic}
        ring = bus._store
        return len(ring), sum(len(shape.times) for shape in ring._shapes
                              if (shape.category, shape.event,
                                  shape.fields) in generic)

    total_t, generic_t = total_and_generic_records(0.5)
    total_2t, generic_2t = total_and_generic_records(1.0)
    assert total_2t > 1.5 * total_t  # the per-packet volume did scale
    assert generic_2t == generic_t
