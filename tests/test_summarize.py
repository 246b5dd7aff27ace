"""``trace summarize``: pinned output for every pinned trace scenario,
the one JSONL reader's input checks, and the summary's flat memory.

The digests were recorded on the tree whose ``summarize_records`` still
walked a loaded list of dicts with its own accumulators.  Regenerate
(only for an intended summary change) with:
  PYTHONPATH=src python -c "import json, tests.test_summarize as t; \
    print(json.dumps(t.pinned_summarize_digests(), indent=1))" \
    > tests/fixtures/summarize_digests.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest

from repro.experiments import cli
from repro.telemetry.summarize import (
    format_summary,
    summarize_file,
    summarize_records,
)
from repro.telemetry.trace import load_trace

from .test_online_spans import RUNS as FINISH_RUNS
from .test_online_spans import _fig5
from .test_trace_determinism import FULL_TRACE

DIGEST_FIXTURE = Path(__file__).parent / "fixtures" / "summarize_digests.json"

#: fixture key -> zero-argument run factory: every ``finish_digests.json``
#: scenario plus a bounded ring whose file starts with the overflow header.
RUNS = {
    **FINISH_RUNS,
    "udp-ring512/AIRTIME": lambda: _fig5(
        dataclasses.replace(FULL_TRACE, trace_capacity=512)),
}


def _label(station) -> str:
    return "-" if station is None else str(station)


def _summary_fields(summary) -> dict:
    """Every ``TraceSummary`` field as plain JSON, dict order included."""
    shares = summary.airtime_shares()
    return {
        "total_records": summary.total_records,
        "t_first_us": summary.t_first_us,
        "t_last_us": summary.t_last_us,
        "measurement_start_us": summary.measurement_start_us,
        "ring_dropped": summary.ring_dropped,
        "by_category": list(summary.by_category.items()),
        "stations": {
            str(station): [tx.transmissions, tx.airtime_us,
                           tx.downlink_airtime_us, tx.uplink_airtime_us,
                           tx.payload_bytes, tx.packets, tx.mean_aggregation,
                           shares[station]]
            for station, tx in sorted(summary.stations.items())
        },
        "drops": {f"{layer}:{reason}": count for (layer, reason), count
                  in sorted(summary.drops.items())},
        "queues": {
            f"{layer}:{_label(station)}": [
                queue.enqueues, queue.dequeues, queue.drops,
                queue.mean_sojourn_us, queue.sojourn_max_us]
            for (layer, station), queue in sorted(
                summary.queues.items(),
                key=lambda item: (item[0][0], _label(item[0][1])))
        },
        "codel_transitions": {
            _label(station): count for station, count in sorted(
                summary.codel_transitions.items(),
                key=lambda item: _label(item[0]))
        },
        "deficit_charged_us": {
            f"{station}:{direction}": us for (station, direction), us
            in sorted(summary.deficit_charged_us.items())
        },
        "scheduler_entries": {
            f"{station}:{lst}": count for (station, lst), count
            in sorted(summary.scheduler_entries.items())
        },
        "fault_events": dict(sorted(summary.fault_events.items())),
        "conservation_ok": summary.conservation_ok,
        "station_bss": {str(station): bss for station, bss
                        in sorted(summary.station_bss.items())},
    }


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _summarize_digests(testbed, directory) -> dict:
    path = testbed.telemetry.trace.write_jsonl(
        str(Path(directory) / "run.trace.jsonl"))
    summary = summarize_file(str(path))
    return {
        "text": _sha(format_summary(summary)),
        "fields": _sha(json.dumps(_summary_fields(summary),
                                  separators=(",", ":"))),
    }


def pinned_summarize_digests() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        return {key: _summarize_digests(run(), directory)
                for key, run in RUNS.items()}


@pytest.mark.parametrize("key", list(RUNS))
def test_summary_matches_pinned_digests(key, tmp_path):
    pinned = json.loads(DIGEST_FIXTURE.read_text())
    assert _summarize_digests(RUNS[key](), tmp_path) == pinned[key]


# ----------------------------------------------------------------------
# Files that are not traces
# ----------------------------------------------------------------------
SUBCOMMANDS = ("summarize", "spans", "waterfall", "diff")


def _trace_cli(command: str, path) -> int:
    files = [str(path)] * (2 if command == "diff" else 1)
    return cli.main(["trace", command, *files])


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("line", ['{"a":1}', "[1,2]", "not json",
                                  '{"t":1.0,"cat":"tx"}'])
def test_a_file_that_is_not_a_trace_is_reported_not_raised(
        command, line, tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t":0.0,"cat":"meta","ev":"measurement_start"}\n'
                    + line + "\n")
    assert _trace_cli(command, path) == 1
    assert f"{path}:2: not a trace record" in capsys.readouterr().err


def test_reader_names_file_and_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('\n{"t":0.0,"cat":"hw","ev":"pop","agg":1}\n{"a":1}\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl:3: not a trace record"):
        load_trace(str(path))


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("bad_t", ["Infinity", "-Infinity", "NaN", "true",
                                   '"40.0"', "1" + "0" * 400],
                         ids=["inf", "-inf", "nan", "bool", "string",
                              "int-past-float-range"])
def test_a_time_that_is_not_a_finite_number_is_not_a_trace_record(
        command, bad_t, tmp_path, capsys):
    """Infinity used to escape as an ``OverflowError`` traceback from the
    waterfall's bins, and NaN to drop the delivered packet silently
    ("0 delivered" and exit 0)."""
    lines = [
        '{"t":0.0,"cat":"queue","ev":"enqueue","layer":"mac","station":0,'
        '"flow":1,"pid":1}',
        '{"t":1.0,"cat":"queue","ev":"dequeue","layer":"mac","station":0,'
        '"pid":1}',
        '{"t":2.0,"cat":"agg","ev":"built","agg":5,"station":0,"pids":[1]}',
        '{"t":3.0,"cat":"hw","ev":"pop","agg":5}',
        '{"t":%s,"cat":"agg","ev":"tx_done","agg":5,"station":0,"ok":true}'
        % bad_t,
    ]
    path = tmp_path / "bad_t.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert _trace_cli(command, path) == 1
    assert f"{path}:5: not a trace record" in capsys.readouterr().err


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_known_shapes_with_missing_fields_take_the_defaults(
        command, tmp_path, capsys):
    path = tmp_path / "sparse.jsonl"
    path.write_text("".join(
        json.dumps({"t": 1.0, "cat": cat, "ev": ev}) + "\n"
        for cat, ev in [("tx", "tx"), ("queue", "enqueue"),
                        ("queue", "dequeue"), ("queue", "drop"),
                        ("codel", "state"), ("sched", "deficit_charge"),
                        ("sched", "station_enter"), ("agg", "built")]))
    assert _trace_cli(command, path) == 0
    if command == "summarize":
        out = capsys.readouterr().out
        assert "8 records" in out
        assert "       ? ?            1" in out  # the drop matrix row


def test_an_empty_file_summarizes_to_zero_records(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert cli.main(["trace", "summarize", str(path)]) == 0
    assert "0 records" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Streaming: memory is O(stations + layers), not O(records)
# ----------------------------------------------------------------------
def _records(n):
    for i in range(n):
        station = i % 3
        yield {"t": float(i), "cat": "queue", "ev": "enqueue",
               "layer": "mac", "station": station, "pid": i}
        yield {"t": i + 0.5, "cat": "queue", "ev": "dequeue",
               "layer": "mac", "station": station, "pid": i,
               "sojourn_us": 0.5}
        yield {"t": i + 0.75, "cat": "tx", "ev": "tx", "station": station,
               "airtime_us": 100.0, "down": True, "n_pkts": 1,
               "bytes": 1500, "ok": True}


def test_summarize_records_accepts_a_generator():
    summary = summarize_records(_records(100))
    assert summary.total_records == 300
    assert summary.queues[("mac", 0)].dequeues == 34
    assert summary.airtime_shares()[2] == pytest.approx(0.33)


def test_summarize_file_holds_no_record_list(tmp_path):
    def peak_bytes(path):
        tracemalloc.start()
        try:
            summarize_file(str(path))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    full = tmp_path / "full.jsonl"
    with open(full, "w") as handle:
        for record in _records(10_000):
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
    baseline = peak_bytes(empty)
    # Loaded into a list of dicts the 30 k records are ~24 MiB.
    assert peak_bytes(full) - baseline < 2 * 1024 * 1024
