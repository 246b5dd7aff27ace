"""Latency/airtime regression gate over recorded traces — and the
component perf floor.

**Trace mode** compares a candidate trace (or directory of traces)
against a baseline: per-station mean/P95 latency attribution per segment
(via :mod:`repro.analysis.attribution`) and per-station airtime shares
(via the trace summariser).  Exits non-zero when any configured
threshold is breached, so CI can pin the latency waterfall the same way
it pins the experiment tables::

    PYTHONPATH=src python benchmarks/gate.py baseline/ candidate/ \
        [--threshold-pct 25] [--min-us 500] [--share-threshold 0.05]

Directories are matched by file name: every ``*.trace.jsonl`` in the
baseline must exist in the candidate.

**Perf mode** gates the component-rate floors: a candidate
``bench_speed.py`` result (JSON) must not fall more than a relative
tolerance below the committed ``BENCH_speed.json`` baseline::

    PYTHONPATH=src python benchmarks/bench_speed.py --skip-report \
        -o /tmp/bench.json
    PYTHONPATH=src python benchmarks/gate.py perf /tmp/bench.json \
        [--baseline BENCH_speed.json] [--tolerance-pct 40]

The generous default tolerance absorbs shared-runner noise while still
catching the multi-x collapses a hot-path regression causes.  Metrics
present in the baseline but missing from the candidate fail loudly;
metrics new to the candidate pass (no baseline to gate against yet).

Exit codes (both modes): 0 ok, 2 usage / missing files, 4 threshold
breach.

This file intentionally defines no pytest cases: it is a gate driver.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Tuple

from repro.analysis.attribution import (
    attribute_file,
    diff_airtime_shares,
    diff_attributions,
)
from repro.telemetry import summarize_file

#: Component-rate floors gated by ``perf`` mode: (section, key) paths
#: into the bench_speed payload.  Bigger is better for every one of
#: these.  (Whole-run speed is ``benchmarks/perf``'s ``host_us_per_pkt``:
#: a run's events/sec falls when a change needs fewer events.)
PERF_METRICS: Tuple[Tuple[str, str], ...] = (
    ("engine", "dispatch_events_per_sec"),
    ("engine", "cancel_heavy_rounds_per_sec"),
    ("trace_ring", "ring_emit_events_per_sec"),
    ("batch_arrivals", "batch_arrivals_per_sec"),
    ("campaign_reduce", "cells_per_sec"),
)


def _pairs(old: str, new: str) -> List[Tuple[Path, Path]]:
    """Resolve the (baseline, candidate) file pairs to compare."""
    old_path, new_path = Path(old), Path(new)
    if old_path.is_file():
        return [(old_path, new_path)]
    pairs = []
    for baseline in sorted(old_path.glob("*.trace.jsonl")):
        candidate = new_path / baseline.name
        pairs.append((baseline, candidate))
    return pairs


def _metric(payload: dict, section: str, key: str):
    entry = payload.get(section)
    return entry.get(key) if isinstance(entry, dict) else None


def perf_main(argv: List[str]) -> int:
    """Gate a bench_speed result against the committed baseline."""
    parser = argparse.ArgumentParser(
        prog="gate.py perf",
        description="component perf floor with a relative tolerance",
    )
    parser.add_argument("current", help="candidate bench_speed JSON")
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).resolve().parent.parent
                    / "BENCH_speed.json"),
        help="baseline bench_speed JSON (default: committed "
             "BENCH_speed.json)")
    parser.add_argument("--tolerance-pct", type=float, default=40.0,
                        help="max rate drop below baseline "
                             "(default 40%%)")
    args = parser.parse_args(argv)

    try:
        baseline = json.loads(Path(args.baseline).read_text())
    except OSError as exc:
        print(f"gate: cannot read baseline: {exc}", file=sys.stderr)
        return 2
    try:
        current = json.loads(Path(args.current).read_text())
    except OSError as exc:
        print(f"gate: cannot read candidate: {exc}", file=sys.stderr)
        return 2

    breaches = 0
    checked = 0
    for section, key in PERF_METRICS:
        base = _metric(baseline, section, key)
        if base is None:
            continue  # metric not in the committed baseline yet
        cand = _metric(current, section, key)
        name = f"{section}.{key}"
        if cand is None:
            print(f"REGRESSION {name}: missing from candidate")
            breaches += 1
            continue
        checked += 1
        floor = base * (1.0 - args.tolerance_pct / 100.0)
        if cand < floor:
            drop = (1.0 - cand / base) * 100.0
            print(f"REGRESSION {name}: {cand:,.0f} < floor {floor:,.0f} "
                  f"({base:,.0f} baseline, -{drop:.0f}% > "
                  f"{args.tolerance_pct:g}% tolerance)")
            breaches += 1
        else:
            print(f"ok {name}: {cand:,.0f} "
                  f"(baseline {base:,.0f}, floor {floor:,.0f})")
    if breaches:
        print(f"gate: {breaches} perf floor breach(es)")
        return 4
    if not checked:
        print("gate: no gateable metrics found in baseline", file=sys.stderr)
        return 2
    print(f"gate: all {checked} perf metrics at or above the floor")
    return 0


def main(argv: List[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "perf":
        return perf_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old", help="baseline trace file or directory")
    parser.add_argument("new", help="candidate trace file or directory")
    parser.add_argument("--threshold-pct", type=float, default=25.0,
                        help="max per-station mean/P95 latency change per "
                             "segment (default 25%%)")
    parser.add_argument("--min-us", type=float, default=500.0,
                        help="noise floor for relative latency changes "
                             "(default 500 µs)")
    parser.add_argument("--share-threshold", type=float, default=0.05,
                        help="max absolute airtime-share change "
                             "(default 0.05)")
    args = parser.parse_args(argv)

    pairs = _pairs(args.old, args.new)
    if not pairs:
        print(f"gate: no *.trace.jsonl files under {args.old}",
              file=sys.stderr)
        return 2

    total_breaches = 0
    for baseline, candidate in pairs:
        if not candidate.is_file():
            print(f"gate: candidate trace missing: {candidate}",
                  file=sys.stderr)
            return 2
        breaches = diff_attributions(
            attribute_file(str(baseline)), attribute_file(str(candidate)),
            threshold_pct=args.threshold_pct, min_us=args.min_us,
        )
        breaches += diff_airtime_shares(
            summarize_file(str(baseline)).airtime_shares(),
            summarize_file(str(candidate)).airtime_shares(),
            threshold=args.share_threshold,
        )
        if breaches:
            total_breaches += len(breaches)
            print(f"REGRESSION {candidate.name} vs {baseline}:")
            for breach in breaches:
                print(f"  {breach}")
        else:
            print(f"ok {candidate.name}")
    if total_breaches:
        print(f"gate: {total_breaches} threshold breach(es) "
              f"across {len(pairs)} trace(s)")
        return 4
    print(f"gate: all {len(pairs)} trace(s) within thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
