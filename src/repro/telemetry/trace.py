"""Structured event tracing: typed, timestamped records on a shared bus.

Design goals, in order:

1. **Zero cost when disabled.**  Instrumented components hold an
   ``Optional[TraceChannel]`` per category; with tracing off (or the
   category filtered) the attribute is ``None`` and every site reduces to
   one ``is not None`` test.  No strings are formatted, no dicts built.
2. **Deterministic output.**  Records are appended in event-execution
   order, carry the simulated timestamp, and serialise with a stable key
   order — so a traced run replays bit-identically for a fixed seed,
   whether it executes in-process or in a worker (see
   ``tests/test_trace_determinism.py``).
3. **Greppable JSONL.**  One JSON object per line:
   ``{"t": <µs>, "cat": <category>, "ev": <event>, ...fields}``.

Two storage backends share the bus API (see DESIGN.md §11):

* ``"ring"`` (default) — the binary columnar store of
  :class:`repro.telemetry.ring.TraceRing`: typed per-shape columns with
  interned strings, decoded into dicts lazily (and cached) only when a
  consumer asks.  Hot instrumentation sites can additionally register a
  prebound positional emitter via :meth:`TraceChannel.emitter`, skipping
  the per-record kwargs dict entirely.
* ``"dict"`` — the legacy list-of-dicts backend, kept as the semantic
  reference; the ring's decoded records must compare equal to it
  (``tests/test_trace_ring.py`` holds the equivalence suite).

The category vocabulary lives in
:data:`repro.telemetry.config.TRACE_CATEGORIES`.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.telemetry.ring import FieldSpec, TraceRing

__all__ = ["TraceBus", "TraceChannel", "RingTraceChannel", "TapConsumer",
           "iter_trace_file", "load_trace"]


_serial = itertools.count()


def _fuse(emit, taps, fields):
    """Compile ``emit`` and its tap handlers into one positional function.

    The result is ``fn(t, v0, .., v<n-1>)`` over the shape's non-constant
    ``fields``, generated for that exact arity (the ``namedtuple``
    trick, so no ``*values`` is packed or unpacked): it stores the
    record through ``emit`` (skipped when ``None``), then calls every
    ``(handler, wanted)`` tap in registration order as
    ``handler(t, *wanted)`` — a wanted field the shape carries is passed
    straight through, a constant field or an absent one (its ``wanted``
    default) is resolved here, at bind time.  The serial keeps the
    function's (file, line, name) key unique, which cProfile needs to
    count it.
    """
    positional = [spec[0] for spec in fields if spec[1] != "c"]
    consts = {spec[0]: spec[2] for spec in fields if spec[1] == "c"}
    params = ", ".join(["t"] + [f"v{i}" for i in range(len(positional))])
    env = {"emit": emit}
    calls = [f"emit({params})"] if emit is not None else []
    for i, (handler, wanted) in enumerate(taps):
        env[f"h{i}"] = handler
        args = ["t"]
        for name, default in wanted.items():
            if name in positional:
                args.append(f"v{positional.index(name)}")
            else:
                env[f"c{i}_{len(args)}"] = consts.get(name, default)
                args.append(f"c{i}_{len(args)}")
        calls.append(f"h{i}({', '.join(args)})")
    name = f"emit_tapped_{next(_serial)}"
    exec(compile(f"def {name}({params}): {'; '.join(calls)}",
                 __file__, "exec"), env)
    return env[name]


class TapConsumer:
    """A table of record handlers and the two front-ends that drive it.

    ``TAPS`` maps each ``(category, event)`` the consumer reads to
    ``(handler name, wanted)``, where ``wanted`` maps the fields the
    handler takes after ``t``, in signature order, to the default that
    stands in when a record lacks one.  The same handlers serve a live
    run (:meth:`register`) and a trace file (:meth:`feed`), so a
    statistic has one implementation wherever its records come from.
    """

    TAPS: Dict[Tuple[str, str], Tuple[str, Dict[str, Any]]] = {}

    def register(self, bus: "TraceBus") -> None:
        """Live: tap ``bus`` (before any channel binds)."""
        for (category, event), (name, wanted) in self.TAPS.items():
            bus.add_tap(category, event, getattr(self, name), wanted)

    def feed(self, record: Mapping[str, Any]) -> None:
        """From a file: unpack one dict record into its handler."""
        entry = self.TAPS.get((record["cat"], record["ev"]))
        if entry is not None:
            name, wanted = entry
            getattr(self, name)(
                record["t"], *map(record.get, wanted, wanted.values()))


class TraceChannel:
    """A category-bound emitter handed to one instrumentation site.

    Channels are cheap cursors over the bus's record list; components
    cache them once (``self._tr_queue = bus.channel("queue")``) so the
    per-event cost is a single method call.  This is the legacy dict
    backend's channel; the ring backend hands out
    :class:`RingTraceChannel` with the same API.
    """

    __slots__ = ("_records", "_bus", "category")

    def __init__(self, records: List[Dict[str, Any]], category: str,
                 bus: "TraceBus") -> None:
        self._records = records
        self._bus = bus
        self.category = category

    def emit(self, t_us: float, event: str, **fields: Any) -> None:
        """Append one record at simulated time ``t_us``."""
        record: Dict[str, Any] = {"t": t_us, "cat": self.category, "ev": event}
        if fields:
            record.update(fields)
        self._records.append(record)
        if self._bus._taps:
            self._bus.dispatch_generic(self.category, event, t_us, fields)

    def emitter(self, event: str, fields: Sequence[FieldSpec]):
        """A positional emitter ``fn(t, *values)`` building dict records.

        Mirrors :meth:`RingTraceChannel.emitter` so instrumentation sites
        are backend-agnostic: ``values`` bind to the non-constant fields
        in declaration order; ``(name, 'c', value)`` fields are injected
        without occupying a positional slot.
        """
        append = self._records.append
        category = self.category
        specs = tuple(fields)

        def emit(t: float, *values: Any) -> None:
            record: Dict[str, Any] = {"t": t, "cat": category, "ev": event}
            index = 0
            for spec in specs:
                if spec[1] == "c":
                    record[spec[0]] = spec[2]
                else:
                    record[spec[0]] = values[index]
                    index += 1
            append(record)

        return self._bus.tapped(category, event, emit, specs)


class RingTraceChannel:
    """Ring-backed trace channel: same API, columnar storage."""

    __slots__ = ("_ring", "_bus", "category")

    def __init__(self, ring: TraceRing, category: str,
                 bus: "TraceBus") -> None:
        self._ring = ring
        self._bus = bus
        self.category = category

    def emit(self, t_us: float, event: str, **fields: Any) -> None:
        """Append one record at simulated time ``t_us``."""
        self._ring.append_generic(self.category, event, t_us, fields)
        if self._bus._taps:
            self._bus.dispatch_generic(self.category, event, t_us, fields)

    def emitter(self, event: str, fields: Sequence[FieldSpec]):
        """A prebound positional emitter for one record shape.

        When the bus holds taps for ``(category, event)`` the returned
        emitter also calls each tap's handler with the same positional
        values — the online-statistics path pays no dict build and no
        record decode.
        """
        emit = self._ring.emitter(self.category, event, fields)
        return self._bus.tapped(self.category, event, emit, fields)


class TraceBus:
    """Collects trace records from every instrumented layer of one run.

    ``categories`` filters what gets recorded: an empty sequence means
    *everything*.  ``channel()`` returns ``None`` for filtered categories,
    which is what makes per-category filtering free at the emission site.
    The ``meta`` category (markers such as the measurement-window start)
    is never filtered — summaries need it to window their tables.

    ``backend`` selects the storage: ``"ring"`` (columnar, default) or
    ``"dict"`` (legacy).  ``capacity`` bounds the ring to the newest N
    records (evictions are counted in :attr:`dropped`); it requires the
    ring backend.

    **Taps.**  :meth:`add_tap` registers a handler for one
    ``(category, event)`` pair (see :class:`TapConsumer`).  Channels
    handed out *after* registration call it for every record they emit:
    a prebound positional emitter is fused with its handlers into one
    generated function (no dict built), generic ``emit(**fields)`` sites
    go through the same generated function, bound once per call site.
    Untapped shapes pay nothing.
    """

    __slots__ = ("_records", "_ring", "_filter", "_taps", "_generic_taps")

    def __init__(self, categories: Sequence[str] = (),
                 backend: str = "ring",
                 capacity: Optional[int] = None) -> None:
        if backend == "ring":
            self._ring: Optional[TraceRing] = TraceRing(capacity=capacity)
            self._records: Optional[List[Dict[str, Any]]] = None
        elif backend == "dict":
            if capacity is not None:
                raise ValueError("capacity requires the ring backend")
            self._ring = None
            self._records = []
        else:
            raise ValueError(f"unknown trace backend {backend!r}")
        self._filter = frozenset(categories) if categories else None
        #: (category, event) -> [(handler, wanted)] in registration order.
        self._taps: Dict[tuple, list] = {}
        #: Fused handlers of generic ``emit(**fields)`` sites, keyed by
        #: (category, event, field-name tuple) — kwargs order is stable
        #: per call site, so each site binds once, not per record.
        self._generic_taps: Dict[tuple, Optional[Callable[..., None]]] = {}

    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        return "dict" if self._ring is None else "ring"

    def wants(self, category: str) -> bool:
        return (
            category == "meta"
            or self._filter is None
            or category in self._filter
        )

    def channel(self, category: str):
        """An emitter for ``category``, or ``None`` when filtered out."""
        if not self.wants(category):
            return None
        if self._ring is not None:
            return RingTraceChannel(self._ring, category, self)
        return TraceChannel(self._records, category, self)

    # ------------------------------------------------------------------
    # Streaming taps
    # ------------------------------------------------------------------
    def add_tap(self, category: str, event: str,
                handler: Callable[..., None],
                wanted: Mapping[str, Any]) -> None:
        """Call ``handler(t, *wanted)`` for every ``(category, event)``.

        ``wanted`` maps each field the handler takes, in signature
        order, to the default standing in when a record shape lacks it.
        Handlers of one pair run in registration order, after the record
        is stored.  Register taps *before* components bind channels (the
        testbed builds Telemetry — and its taps — first).
        """
        self._taps.setdefault((category, event), []).append((handler, wanted))

    def tapped(self, category: str, event: str, emit: Callable[..., None],
               fields: Sequence[FieldSpec]) -> Callable[..., None]:
        """``emit`` fused with the shape's tap handlers (if any)."""
        taps = self._taps.get((category, event))
        return _fuse(emit, taps, fields) if taps else emit

    def dispatch_generic(self, category: str, event: str, t_us: float,
                         fields: Dict[str, Any]) -> None:
        """Hand one generic ``emit(**fields)`` record to the taps."""
        key = (category, event, tuple(fields))
        try:
            handlers = self._generic_taps[key]
        except KeyError:
            taps = self._taps.get((category, event))
            handlers = self._generic_taps[key] = _fuse(
                None, taps, [(name, "o") for name in fields]
            ) if taps else None
        if handlers is not None:
            handlers(t_us, *fields.values())

    # ------------------------------------------------------------------
    @property
    def records(self) -> List[Dict[str, Any]]:
        if self._ring is not None:
            return self._ring.records()
        return self._records

    @property
    def dropped(self) -> int:
        """Records evicted by a bounded ring (0 for unbounded/dict)."""
        return self._ring.dropped if self._ring is not None else 0

    def __len__(self) -> int:
        if self._ring is not None:
            return len(self._ring)
        return len(self._records)

    def iter_records(self) -> Iterator[Dict[str, Any]]:
        """Records in emission order, decoding lazily on the ring."""
        if self._ring is not None:
            return self._ring.iter_records()
        return iter(self._records)

    def tail(self, n: int) -> List[Dict[str, Any]]:
        """The newest ``n`` records as dicts (flight-recorder dumps)."""
        if self._ring is not None:
            return self._ring.tail(n)
        return list(self._records[-n:]) if n > 0 else []

    def _overflow_header(self) -> Optional[Dict[str, Any]]:
        """Marker record announcing bounded-ring evictions, or ``None``.

        Serialised ahead of the retained records so ``trace summarize``
        can surface the truncation (and ``--strict`` can refuse it)
        instead of silently reading a truncated trace as clean.
        """
        if self.dropped <= 0:
            return None
        return {"t": 0.0, "cat": "meta", "ev": "ring_overflow",
                "dropped": self.dropped}

    def dumps(self) -> str:
        """The full trace as JSONL text (deterministic key order)."""
        dumps = json.dumps
        header = self._overflow_header()
        prefix = (
            dumps(header, separators=(",", ":")) + "\n" if header else ""
        )
        return prefix + "".join(
            dumps(record, separators=(",", ":")) + "\n"
            for record in self.iter_records()
        )

    def write_jsonl(self, path: str) -> Path:
        """Stream the trace to ``path``, creating parent directories.

        Writes record by record instead of materialising the whole
        JSONL text (a saturated multi-second trace is tens of MB).
        """
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        dumps = json.dumps
        with open(target, "w") as handle:
            header = self._overflow_header()
            if header is not None:
                handle.write(dumps(header, separators=(",", ":")))
                handle.write("\n")
            for record in self.iter_records():
                handle.write(dumps(record, separators=(",", ":")))
                handle.write("\n")
        return target


_RECORD_KEYS = frozenset(("t", "cat", "ev"))


def iter_trace_file(path: str) -> Iterator[Dict[str, Any]]:
    """Yield the records of a JSONL trace, one line at a time.

    The one reader behind every ``trace`` subcommand: a line that is not
    a JSON object carrying ``t`` / ``cat`` / ``ev`` raises
    ``ValueError("FILE:LINE: not a trace record")``.
    """
    with open(path, "r") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if not (isinstance(record, dict)
                    and _RECORD_KEYS <= record.keys()):
                raise ValueError(f"{path}:{number}: not a trace record")
            yield record


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL trace file back into a list of records."""
    return list(iter_trace_file(path))
