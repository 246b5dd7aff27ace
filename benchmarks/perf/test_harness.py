"""Self-tests of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``; outside
the tier-1 ``testpaths``, so the tier-1 suite's wall time is unchanged.
"""

from __future__ import annotations

import json
import math
import re

import pytest

from benchmarks.perf import child, compare, harness, layers, spec
from benchmarks.perf.stats import canonical, digest, quartiles, reduce_reps

E2E_NAMES = [m.name for m in spec.END_TO_END]


# ----------------------------------------------------------------------
# spec <-> BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_is_the_manifest():
    committed = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.manifest()


def test_manifest_fits_the_driver_schema():
    doc = spec.manifest()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    for workload in doc["workloads"]:
        assert name.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    metrics = doc["end_to_end"] + doc["per_layer"]
    for metric in metrics:
        assert name.match(metric["name"]), metric["name"]
        assert unit.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    names = [m["name"] for m in metrics] + [w["name"] for w in doc["workloads"]]
    assert len(set(names)) == len(names)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(doc)) < 64 * 1024


def test_interaction_table_names_real_workloads_and_metrics():
    workloads = {w.name for w in spec.WORKLOADS}
    layer_names = {m.name for m in spec.per_layer_metrics()}
    for row in spec.INTERACTIONS:
        assert set(row["on"]) | set(row["not_on"]) <= workloads
        assert set(row["moves"]) <= set(E2E_NAMES)
        for pattern in row["layer_metrics"]:
            if " " in pattern:  # prose, e.g. "import and build cost"
                continue
            regex = re.compile(re.escape(pattern).replace(r"\*", ".*") + "$")
            assert any(regex.match(name) for name in layer_names), pattern


# ----------------------------------------------------------------------
# module -> layer bucketing on a synthetic pstats table
# ----------------------------------------------------------------------
SRC = "/somewhere/checkout/src/repro/"
ENQUEUE = (SRC + "core/mac_fq.py", 152, "enqueue")
PACKET_INIT = (SRC + "core/packet.py", 40, "__init__")
ENGINE_RUN = (SRC + "sim/engine.py", 299, "run")
PFIFO_ENQ = (SRC + "qdisc/pfifo.py", 58, "enqueue")
FQ_ENQ = (SRC + "qdisc/fq_codel_qdisc.py", 59, "enqueue")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
STDLIB_FN = ("/usr/lib/python3.11/random.py", 200, "randint")
BENCH_FN = ("/somewhere/checkout/benchmarks/perf/child.py", 1, "run_rep")

SYNTHETIC = {
    # func: (primitive calls, calls, tottime, cumtime, callers)
    BENCH_FN: (1, 1, 0.125, 4.0, {}),
    ENGINE_RUN: (1, 1, 1.0, 3.875, {BENCH_FN: (1, 1, 1.0, 3.875)}),
    ENQUEUE: (10, 10, 0.5, 1.0, {ENGINE_RUN: (10, 10, 0.5, 1.0)}),
    PACKET_INIT: (10, 10, 0.25, 0.25, {ENQUEUE: (10, 10, 0.25, 0.25)}),
    PFIFO_ENQ: (4, 4, 0.5, 0.5, {ENGINE_RUN: (4, 4, 0.5, 0.5)}),
    FQ_ENQ: (6, 6, 0.25, 0.25, {ENGINE_RUN: (6, 6, 0.25, 0.25)}),
    # 0.75 s of heappush from the engine, 0.25 s from a stdlib caller.
    HEAPPUSH: (20, 20, 1.0, 1.0, {ENGINE_RUN: (15, 15, 0.75, 0.75),
                                  STDLIB_FN: (5, 5, 0.25, 0.25)}),
    STDLIB_FN: (5, 5, 0.375, 0.625, {ENQUEUE: (5, 5, 0.375, 0.625)}),
}


def test_buckets_sum_to_the_profiled_total():
    buckets = layers.bucket(SYNTHETIC)
    total = sum(entry[2] for entry in SYNTHETIC.values())
    assert sum(b["self_s"] for b in buckets.values()) == pytest.approx(total)
    assert set(buckets) == set(spec.LAYERS + spec.CATCH_ALL)


def test_unknown_repro_modules_fall_to_other_and_outsiders_to_stdlib():
    assert layers.layer_of(PACKET_INIT[0]) == "other"
    assert layers.layer_of(BENCH_FN[0]) == "stdlib"
    assert layers.layer_of(HEAPPUSH[0]) == "stdlib"
    assert layers.layer_of(SRC + "core/fq_codel.py") == "core.codel"
    assert layers.layer_of(SRC + "telemetry/ring.py") == "telemetry.trace"
    buckets = layers.bucket(SYNTHETIC)
    assert buckets["other"] == {"self_s": 0.25, "calls": 10}


def test_leaves_are_charged_to_the_repro_layer_that_called_them():
    buckets = layers.bucket(SYNTHETIC)
    # engine: its own 1.0 s + 0.75 s of heappush it called directly.
    assert buckets["sim.engine"]["self_s"] == pytest.approx(1.75)
    assert buckets["sim.engine"]["calls"] == 1
    # mac_fq: its own 0.5 s + the stdlib randint it called (0.375 s).
    assert buckets["core.mac_fq"]["self_s"] == pytest.approx(0.875)
    # stdlib keeps the harness frame and heappush's stdlib-called part.
    assert buckets["stdlib"]["self_s"] == pytest.approx(0.125 + 0.25)
    assert buckets["stdlib"]["calls"] == 1 + 20 + 5


def test_boundaries_read_inclusive_time_and_callers():
    edges = layers.boundaries(SYNTHETIC)
    assert set(edges) == set(spec.BOUNDARIES)
    assert edges["core.mac_fq.enqueue"]["cum_s"] == pytest.approx(1.0)
    assert edges["core.mac_fq.enqueue"]["callers"] == {
        "sim/engine.py:run": pytest.approx(1.0)}
    # Both qdisc implementations fold into one boundary.
    assert edges["qdisc.enqueue"]["cum_s"] == pytest.approx(0.75)
    assert edges["qdisc.enqueue"]["calls"] == 10
    assert edges["mac.station.send"]["calls"] == 0
    assert layers.calls_to(SYNTHETIC, "core/mac_fq.py", "enqueue") == 10


# ----------------------------------------------------------------------
# rep arithmetic and the digest
# ----------------------------------------------------------------------
def test_quartiles_and_estimators():
    assert quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    # Never below the fastest rep, even with two values.
    q1, median, q3 = quartiles([1.0, 2.0])
    assert (q1, median, q3) == (1.25, 1.5, 1.75)
    reps = [1.0, 1.2, 1.1, 9.0, 1.3]
    p25 = reduce_reps(reps, "p25")
    assert p25["value"] == p25["q1"] == 1.1
    assert p25["median"] == 1.2 and p25["q3"] == 1.3 and p25["n"] == 5
    assert reduce_reps(reps, "median")["value"] == 1.2
    assert reduce_reps([1.0, 2.0, 6.0], "mean")["value"] == 3.0
    with pytest.raises(ValueError):
        reduce_reps(reps, "max")


def test_digest_is_stable_across_dict_order_and_float_repr():
    a = {"airtime": {0: 3.0, 1: 1e-05}, "drops": {"mac:codel": 7},
         "x": 0.1 + 0.2}
    b = {"x": 0.3, "drops": {"mac:codel": 7.0},
         "airtime": {"1": 0.00001, "0": 3}}
    assert digest(a) == digest(b)
    assert canonical({2: (1, 2.5)}) == {"2": ["1", "2.5"]}
    changed = dict(a, x=0.3001)
    assert digest(changed) != digest(a)
    assert canonical(math.inf) == "inf"


# ----------------------------------------------------------------------
# compare verdicts
# ----------------------------------------------------------------------
def _reps(values):
    return reduce_reps(values, "p25")


def _doc(wall, fail_share=0.0):
    return {"workloads": {"w": {"fail_share": fail_share,
                                "metrics": {"wall_s": _reps(wall)}}}}


# A fixed 10% bound, so the cases below do not move with spec.py.
WALL = spec.Metric("wall_s", "s", "lower", 0.10, "p25")


def test_compare_verdicts():
    quiet = [1.00, 1.01, 1.02, 1.01, 1.00]
    assert compare.verdict(WALL, _reps(quiet), _reps(quiet))[0] == "same"
    slower = [v * 1.2 for v in quiet]
    kind, worsening = compare.verdict(WALL, _reps(quiet), _reps(slower))
    assert kind == "worse" and worsening == pytest.approx(0.2)
    faster = [v * 0.8 for v in quiet]
    assert compare.verdict(WALL, _reps(quiet), _reps(faster))[0] == "better"
    # 5% slower is inside the 10% bound.
    assert compare.verdict(
        WALL, _reps(quiet), _reps([v * 1.05 for v in quiet]))[0] == "same"


def test_compare_is_unresolved_when_spread_exceeds_the_bound():
    noisy = [1.0, 1.3, 1.1, 1.6, 1.2]  # IQR 0.2 of median 1.2 > 10%
    assert compare.verdict(WALL, _reps(noisy), _reps(noisy))[0] == "unresolved"
    # ... unless every rep of B beats every rep of A.
    clear = [0.5, 0.6, 0.55, 0.7, 0.52]
    assert compare.verdict(WALL, _reps(noisy), _reps(clear))[0] == "better"
    awful = [v * 3 for v in noisy]
    assert compare.verdict(WALL, _reps(noisy), _reps(awful))[0] == "worse"


def test_compare_rows_and_exit_code():
    quiet = [1.00, 1.01, 1.02]
    rows = compare.compare(_doc(quiet), _doc(quiet))
    by_metric = {row["metric"]: row["verdict"] for row in rows}
    assert by_metric["wall_s"] == "same" and by_metric["fail_share"] == "same"
    # A metric missing from a set cannot be judged.
    assert by_metric["setup_s"] == "unresolved"
    assert compare.exit_code(rows) == compare.EXIT_REGRESSION
    only_wall = [r for r in rows if r["metric"] in ("wall_s", "fail_share")]
    assert compare.exit_code(only_wall) == 0
    failing = compare.compare(_doc(quiet), _doc(quiet, fail_share=0.1))
    assert {r["metric"]: r["verdict"] for r in failing}["fail_share"] == "worse"
    assert "worse or unresolved" in compare.format_rows(rows)


# ----------------------------------------------------------------------
# rep checks and reduction
# ----------------------------------------------------------------------
def _record(rep, wall, goodput, digest_="d", **extra):
    record = {
        "workload": "udp3_airtime", "rep": rep,
        "replication": rep % spec.REPLICATIONS, "profiled": False,
        "error": None, "setup_s": 0.3, "wall_s": wall,
        "host_us_per_pkt": wall * 10, "peak_rss_mb": 50.0,
        "goodput_mbps": goodput, "jain_airtime": 0.99,
        "p99_latency_ms": 100.0 + goodput, "latency_samples": 2000,
        "packets": 1000, "events": 3000, "sim_seconds": 15.0,
        "sim_digest": f"{digest_}{rep % spec.REPLICATIONS}",
        "conservation_balance": 0,
    }
    record.update(extra)
    return record


def test_summarise_discards_the_warmup_and_takes_replication_medians():
    reps = [_record(0, 9.0, 10.0), _record(1, 1.0, 20.0),
            _record(2, 1.2, 30.0), _record(3, 1.1, 40.0),
            _record(4, 1.3, 10.0), _record(5, 1.4, 20.0)]
    summary = harness.summarise(reps)
    assert summary["attempted"] == 6 and summary["failed"] == 0
    wall = summary["metrics"]["wall_s"]
    assert wall["n"] == 5 and 9.0 not in wall["samples"]
    assert wall["value"] == 1.1  # p25 of 1.0 1.1 1.2 1.3 1.4
    # One value per replication (the warm-up's simulation still counts).
    goodput = summary["metrics"]["goodput_mbps"]
    assert goodput["samples"] == [10.0, 20.0, 30.0, 40.0]
    assert goodput["value"] == 25.0
    assert summary["sim_digests"] == ["d0", "d1", "d2", "d3"]
    assert set(summary["metrics"]) == set(E2E_NAMES)


def test_check_rep_catches_each_kind_of_wrong_output():
    first = _record(0, 1.0, 10.0)
    drifted = _record(4, 1.0, 10.0, digest_="x")
    harness.check_rep(drifted, [first])
    assert "differs from rep 0" in drifted["error"]
    other_replication = _record(1, 1.0, 10.0, digest_="x")
    harness.check_rep(other_replication, [first])
    assert other_replication["error"] is None
    leaked = _record(1, 1.0, 10.0, conservation_balance=3)
    harness.check_rep(leaked, [])
    assert "conservation" in leaked["error"]
    nan = _record(1, 1.0, float("nan"))
    harness.check_rep(nan, [])
    assert "NaN" in nan["error"]
    torn = _record(0, 2.0, 10.0, profiled=True, unattributed_share=0.2)
    harness.check_rep(torn, [first])
    assert "profiler left" in torn["error"]
    reps = [first, leaked]
    assert harness.summarise(reps, warmup=False)["fail_share"] == 0.5


# ----------------------------------------------------------------------
# every workload, one simulated second
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", [w.name for w in spec.WORKLOADS])
def test_smoke_every_workload_reports_all_end_to_end_metrics(name):
    result = child.run_rep(name, seed=1, duration_s=1.0, warmup_s=0.2)
    for metric in E2E_NAMES:
        assert math.isfinite(result[metric]) and result[metric] > 0, metric
    assert result["conservation_balance"] == 0
    assert result["packets"] > 0 and result["latency_samples"] > 0
    again = child.run_rep(name, seed=1, duration_s=1.0, warmup_s=0.2)
    assert again["sim_digest"] == result["sim_digest"]
    other = child.run_rep(name, seed=2, duration_s=1.0, warmup_s=0.2)
    assert other["sim_digest"] != result["sim_digest"]


def test_profiled_rep_emits_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(child, "TRACE_DIR", tmp_path)
    plain = child.run_rep("udp3_fifo", seed=1, duration_s=1.0, warmup_s=0.2)
    profiled = child.run_rep("udp3_fifo", seed=1, profile=True,
                             duration_s=1.0, warmup_s=0.2)
    assert profiled["sim_digest"] == plain["sim_digest"]
    summary = harness.summarise(
        [dict(plain, rep=0, replication=0, profiled=False, error=None)],
        warmup=False)
    values = harness.per_layer("udp3_fifo", summary, profiled, None)
    assert list(values) == [m.name for m in spec.per_layer_metrics()]
    assert all(math.isfinite(v) for v in values.values())
    self_us = sum(v for k, v in values.items() if k.endswith(".self_us_per_pkt"))
    assert self_us == pytest.approx(
        profiled["wall_s"] * 1e6 / profiled["packets"], rel=1e-9)
    assert abs(profiled["unattributed_share"]) < 0.05
    # The bypass control really bypasses the MAC queue and the scheduler.
    assert values["core.mac_fq.calls_per_pkt"] == 0
    assert values["core.airtime.calls_per_pkt"] == 0
    assert values["traffic.tcp.calls_per_pkt"] == 0
    assert values["qdisc.pfifo.calls_per_pkt"] > 0
    assert values["qdisc.enqueue.cum_us_per_pkt"] > 0
    assert (tmp_path / "udp3_fifo.pstats").exists()
    ledger = json.loads((tmp_path / "udp3_fifo.json").read_text())
    assert ledger["boundaries"]["qdisc.enqueue"]["callers"]
