"""``trace summarize``: pinned output for every pinned trace scenario.

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
from pathlib import Path

import pytest

from repro.telemetry.summarize import format_summary, summarize_file

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
