"""Turn a JSONL trace into per-station / per-queue summary tables.

This is the analysis half of the trace bus: given the records one traced
run emitted (from a file or in memory), compute

* per-station transmission totals — airtime, share of the summed
  airtime, delivered payload, mean aggregation — in an
  :class:`~repro.analysis.stats.AirtimeTracker` fed each ``tx`` record
  through the handler the live run's medium observer calls, and reset
  at the ``measurement_start`` marker, where the live run resets its
  own: the file's account equals the live one field for field;
* drop accounting by layer and reason (the unified drop funnel);
* per-layer queue activity (enqueues/dequeues, mean sojourn);
* CoDel state transitions and scheduler deficit charges per station.

Exposed on the CLI as ``repro trace summarize FILE...`` (or
``python -m repro.experiments.cli trace summarize``).
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.analysis.stats import AirtimeTracker
from repro.telemetry.streaming import StreamingStats
from repro.telemetry.trace import iter_trace_file

__all__ = ["TraceSummary", "summarize_records", "summarize_file",
           "format_summary"]


class _QueueRow(NamedTuple):
    """Per-(layer, station) queue activity over the whole trace."""

    enqueues: int
    dequeues: int
    drops: int
    sojourn_total_us: float
    sojourn_max_us: float

    @property
    def mean_sojourn_us(self) -> float:
        return self.sojourn_total_us / self.dequeues if self.dequeues else 0.0


class TraceSummary(StreamingStats):
    """Everything ``repro trace summarize`` prints, as plain data.

    The airtime account (``account``, measurement window), the drop
    matrix (``drops``) and the enqueue / dequeue counts are the accounts
    a live run keeps, fed from the file through the same handlers; on
    top sit the tallies only a full trace is asked for.  Memory is
    O(stations + layers), whatever the trace size.
    """

    TAPS = {
        **StreamingStats.TAPS,
        ("tx", "tx"): ("on_tx_record", {
            "station": -1, "airtime_us": 0.0, "tx_us": 0.0, "down": False,
            "n_pkts": 0, "bytes": 0, "ok": False, "bss": None}),
        ("queue", "drop"): ("on_queue_drop", {
            "layer": "?", "reason": "?", "station": None}),
        # Unlike the live sketch, the table counts a sojourn-less dequeue.
        ("queue", "dequeue"): ("on_queue_dequeue", {
            "layer": "?", "station": None, "sojourn_us": 0.0}),
        ("codel", "state"): ("on_codel_state", {"station": None}),
        ("sched", "deficit_charge"): ("on_deficit_charge", {
            "station": -1, "dir": "?", "us": 0.0}),
        ("sched", "station_enter"): ("on_station_enter", {
            "station": -1, "list": "?"}),
    }

    def __init__(self) -> None:
        super().__init__()
        self.total_records = 0
        self.t_first_us: Optional[float] = None
        self.t_last_us: Optional[float] = None
        #: Records a bounded trace ring evicted before this trace was
        #: serialised (the ``ring_overflow`` header record) — everything
        #: below is computed from the *retained tail only*.
        self.ring_dropped = 0
        self.by_category: Dict[str, int] = {}
        #: (layer, station) -> [drops, sojourn total, sojourn max]; any
        #: ``queue`` record gives its queue a row.
        self._queue_tallies: Dict[Tuple[str, Any], List[float]] = {}
        #: Station -> CoDel enter/exit-drop transition count.
        self.codel_transitions: Dict[Any, int] = {}
        #: Station -> total airtime charged to its deficit (µs), by direction.
        self.deficit_charged_us: Dict[Tuple[int, str], float] = {}
        #: Station -> times it (re)entered the scheduler, by list.
        self.scheduler_entries: Dict[Tuple[int, str], int] = {}
        #: Fault-injection event counts by event type (``fault`` category).
        self.fault_events: Dict[str, int] = {}
        #: Conservation-audit verdicts seen in the trace (ok flags, in order).
        self.conservation_ok: List[bool] = []
        #: Station -> BSS id, harvested from multi-BSS ``tx`` records in
        #: the measurement window.  Empty for single-BSS traces (their tx
        #: records carry no ``bss`` field).
        self.station_bss: Dict[int, int] = {}
        #: BSS id -> the account of that cell's transmissions (the live
        #: run's per-BSS tracker), for multi-BSS traces.
        self.bss_accounts: Dict[int, AirtimeTracker] = {}

    @property
    def queues(self) -> Dict[Tuple[str, Any], _QueueRow]:
        """(layer, station) -> queue activity (whole trace)."""
        return {key: _QueueRow(*self.queue_counts.get(key, (0, 0)), *tally)
                for key, tally in self._queue_tallies.items()}

    def _tally(self, layer: str, station: Any) -> List[float]:
        return self._queue_tallies.setdefault((layer, station),
                                              [0, 0.0, 0.0])

    # ------------------------------------------------------------------
    def observe(self, record: Mapping[str, Any]) -> None:
        """Count one record, then ``feed`` it to its handler."""
        self.total_records += 1
        if self.t_first_us is None:
            self.t_first_us = record["t"]
        self.t_last_us = record["t"]
        cat = record["cat"]
        self.by_category[cat] = self.by_category.get(cat, 0) + 1
        if cat == "queue":
            self._tally(record.get("layer", "?"), record.get("station"))
        elif cat == "fault":
            ev = record["ev"]
            self.fault_events[ev] = self.fault_events.get(ev, 0) + 1
            if ev == "conservation":
                self.conservation_ok.append(bool(record.get("ok")))
        self.feed(record)

    def reset_window(self, t_us: float) -> None:
        super().reset_window(t_us)
        self.account.reset()
        self.station_bss.clear()
        self.bss_accounts.clear()

    def on_tx_record(self, t: float, station: int, airtime_us: float,
                     tx_us: float, down: bool, n_pkts: int, n_bytes: int,
                     ok: bool, bss: Optional[int]) -> None:
        args = (t, station, airtime_us, tx_us, down, n_pkts, n_bytes, ok)
        self.account.on_tx(*args)
        if bss is not None:
            self.station_bss[station] = bss
            account = self.bss_accounts.get(bss)
            if account is None:
                account = self.bss_accounts[bss] = AirtimeTracker()
            account.on_tx(*args)
        self.on_tx(t, station, airtime_us)

    def on_queue_drop(self, t: float, layer: str, reason: str,
                      station: Any) -> None:
        self._tally(layer, station)[0] += 1
        self.on_drop(t, layer, reason)

    def on_queue_dequeue(self, t: float, layer: str, station: Any,
                         sojourn_us: float) -> None:
        tally = self._tally(layer, station)
        tally[1] += sojourn_us
        if sojourn_us > tally[2]:
            tally[2] = sojourn_us
        self.on_dequeue(t, layer, station, sojourn_us)

    def on_codel_state(self, t: float, station: Any) -> None:
        self.codel_transitions[station] = (
            self.codel_transitions.get(station, 0) + 1)

    def on_deficit_charge(self, t: float, station: int, direction: str,
                          us: float) -> None:
        key = (station, direction)
        self.deficit_charged_us[key] = (
            self.deficit_charged_us.get(key, 0.0) + us)

    def on_station_enter(self, t: float, station: int, lst: str) -> None:
        key = (station, lst)
        self.scheduler_entries[key] = self.scheduler_entries.get(key, 0) + 1


def summarize_records(records: Iterable[Mapping[str, Any]]) -> TraceSummary:
    """Aggregate records (in emission order) into a summary, streaming."""
    summary = TraceSummary()
    for index, record in enumerate(records):
        # A bounded ring serialises its eviction count as a leading
        # ``ring_overflow`` marker; fold it out so it never skews the
        # record count or the trace's time span.
        if index == 0 and record.get("ev") == "ring_overflow":
            summary.ring_dropped = int(record.get("dropped", 0))
        else:
            summary.observe(record)
    summary.by_category = dict(sorted(summary.by_category.items()))
    return summary


def summarize_file(path: str) -> TraceSummary:
    return summarize_records(iter_trace_file(path))


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _station_label(station: Any) -> str:
    return "-" if station is None else str(station)


def format_summary(summary: TraceSummary, title: str = "") -> str:
    """Render the summary as the text tables the CLI prints."""
    lines: List[str] = []
    if title:
        lines.append(f"# {title}")
    span = ""
    if summary.t_first_us is not None:
        span = (f", {summary.t_first_us / 1e6:.3f}s – "
                f"{summary.t_last_us / 1e6:.3f}s")
    lines.append(f"{summary.total_records} records{span}")
    if summary.ring_dropped:
        lines.append(
            f"WARNING: bounded trace ring dropped {summary.ring_dropped} "
            f"older records — tables below cover the retained tail only"
        )
    if summary.by_category:
        lines.append("categories: " + ", ".join(
            f"{cat}={count}" for cat, count in summary.by_category.items()
        ))

    account = summary.account
    if account.airtime_us:
        window = ("measurement window"
                  if summary.measurement_start_us is not None
                  else "whole trace")
        lines.append("")
        lines.append(f"Per-station transmissions ({window}):")
        lines.append(
            f"{'station':>8} {'tx':>7} {'airtime_ms':>11} {'share':>7} "
            f"{'down_ms':>9} {'up_ms':>9} {'bytes':>12} {'mean_agg':>9}"
        )
        shares = account.airtime_shares()
        for station in sorted(account.airtime_us):
            tx = account.station(station)
            row = (
                f"{station:>8} {tx['transmissions']:>7} "
                f"{tx['airtime_us'] / 1e3:>11.2f} {shares[station]:>7.1%} "
                f"{tx['downlink_airtime_us'] / 1e3:>9.2f} "
                f"{tx['uplink_airtime_us'] / 1e3:>9.2f} "
                f"{tx['delivered_bytes']:>12} "
                f"{account.mean_aggregation(station):>9.1f}"
            )
            if summary.station_bss:
                row += f"  bss={summary.station_bss.get(station, '?')}"
            lines.append(row)

    # Multi-BSS traces (tx records carrying a ``bss`` field) additionally
    # roll the airtime table up per cell, each cell from its own account
    # (a roamer's airtime stays where it was spent; ``stations`` counts
    # it where it was last seen); single-BSS traces never reach this
    # branch, so their output is unchanged.
    if summary.bss_accounts:
        members = Counter(summary.station_bss.values())
        total_airtime = sum(account.airtime_us.values())
        lines.append("")
        lines.append("Per-BSS rollup (measurement window):")
        lines.append(
            f"{'bss':>4} {'stations':>8} {'airtime_ms':>11} "
            f"{'share':>7} {'jain':>7}"
        )
        for bss in sorted(summary.bss_accounts):
            cell = summary.bss_accounts[bss]
            bss_airtime = sum(cell.airtime_us.values())
            share = bss_airtime / total_airtime if total_airtime > 0 else 0.0
            lines.append(
                f"{bss:>4} {members[bss]:>8} {bss_airtime / 1e3:>11.2f} "
                f"{share:>7.1%} {cell.jain_airtime():>7.3f}"
            )

    queues = summary.queues
    if queues:
        lines.append("")
        lines.append("Per-layer queue activity (whole trace):")
        lines.append(
            f"{'layer':>8} {'station':>8} {'enq':>9} {'deq':>9} "
            f"{'drops':>7} {'mean_sojourn_ms':>16} {'max_ms':>8}"
        )
        for (layer, station) in sorted(
            queues, key=lambda k: (k[0], str(k[1]))
        ):
            queue = queues[(layer, station)]
            lines.append(
                f"{layer:>8} {_station_label(station):>8} "
                f"{queue.enqueues:>9} {queue.dequeues:>9} {queue.drops:>7} "
                f"{queue.mean_sojourn_us / 1e3:>16.2f} "
                f"{queue.sojourn_max_us / 1e3:>8.2f}"
            )

    if summary.drops:
        lines.append("")
        lines.append("Drops by layer and reason:")
        for (layer, reason), count in sorted(summary.drops.items()):
            lines.append(f"  {layer:>8} {reason:<12} {count}")

    if summary.codel_transitions:
        lines.append("")
        lines.append("CoDel state transitions (enter+exit dropping):")
        for station in sorted(summary.codel_transitions,
                              key=_station_label):
            lines.append(f"  station {_station_label(station):>4} "
                         f"{summary.codel_transitions[station]}")

    if summary.deficit_charged_us:
        lines.append("")
        lines.append("Airtime charged to scheduler deficits (ms):")
        stations = sorted({s for s, _ in summary.deficit_charged_us})
        for station in stations:
            tx_us = summary.deficit_charged_us.get((station, "tx"), 0.0)
            rx_us = summary.deficit_charged_us.get((station, "rx"), 0.0)
            lines.append(
                f"  station {station:>4} tx {tx_us / 1e3:>10.2f} "
                f"rx {rx_us / 1e3:>10.2f}"
            )

    if summary.fault_events:
        lines.append("")
        lines.append("Fault-injection events:")
        for ev, count in sorted(summary.fault_events.items()):
            lines.append(f"  {ev:<16} {count}")
        if summary.conservation_ok:
            verdict = ("ok" if all(summary.conservation_ok)
                       else "VIOLATED")
            lines.append(f"  conservation audit: {verdict}")

    if summary.scheduler_entries:
        new = sum(v for (s, lst), v in summary.scheduler_entries.items()
                  if lst == "new")
        old = sum(v for (s, lst), v in summary.scheduler_entries.items()
                  if lst == "old")
        lines.append("")
        lines.append(f"Scheduler entries: {new} via new_stations (sparse), "
                     f"{old} direct to old_stations")

    return "\n".join(lines)
