"""``trace summarize``: pinned output for every traced catalogue entry,
the one JSONL reader's input checks, and the summary's flat memory.

The summarize digests were recorded on the tree whose
``summarize_records`` still walked a loaded list of dicts with its own
accumulators.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.experiments import cli
from repro.telemetry.summarize import summarize_file, summarize_records
from repro.telemetry.trace import load_trace
from repro.validation import catalogue


@pytest.mark.parametrize("key", catalogue.traced_names())
def test_summary_matches_pinned_digests(key):
    pinned = catalogue.load(key)["digests"]
    assert catalogue.summarize_digests(catalogue.run_traced(key)) == {
        name: pinned[name] for name in ("summarize_text", "summarize_fields")}


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
    assert summary.account.airtime_shares()[2] == pytest.approx(0.33)


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
