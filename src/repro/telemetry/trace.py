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
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.telemetry.ring import FieldSpec, TraceRing

__all__ = ["TraceBus", "TraceChannel", "RingTraceChannel", "load_trace",
           "bind_positional"]


_serial = itertools.count()


def _positional_fn(name, n_values, calls, env, filename):
    """Compile ``name(t, v0, .., v<n-1>)`` making ``calls`` in order.

    ``calls`` pairs a callee with its argument names, both resolved in
    ``env`` or among the parameters.  Generating the exact arity (the
    ``namedtuple`` trick) forwards a record without packing ``*values``
    on the way in and unpacking them on the way out.  Profiles and
    tracebacks charge the function to ``filename``; the serial keeps
    its (file, line, name) key unique, which cProfile needs to count it.
    """
    name = f"{name}_{next(_serial)}"
    params = ", ".join(["t"] + [f"v{i}" for i in range(n_values)])
    body = "; ".join(f"{callee}({', '.join(args)})" for callee, args in calls)
    exec(compile(f"def {name}({params}): {body}", filename, "exec"), env)
    return env[name]


def bind_positional(handler, wanted, fields, filename=__file__):
    """An :meth:`TraceBus.add_tap` consumer calling ``handler(t, *wanted)``.

    ``wanted`` maps each field to the default that stands in when the
    shape lacks it.  Constant fields and defaults are resolved here, at
    bind time: a tapped record costs one arity-exact call on top of the
    handler's, charged to ``filename`` (pass the consumer's own module).
    """
    positional = [spec[0] for spec in fields if spec[1] != "c"]
    consts = {spec[0]: spec[2] for spec in fields if spec[1] == "c"}
    env = {"handler": handler}
    args = ["t"]
    for name, default in wanted.items():
        if name in positional:
            args.append(f"v{positional.index(name)}")
            continue
        env[f"c{len(args)}"] = consts.get(name, default)
        args.append(f"c{len(args)}")
    label = getattr(handler, "__name__", "handler")
    return _positional_fn(f"tap_{label if label.isidentifier() else 'fn'}",
                          len(positional), [("handler", args)], env, filename)


def _tee(emit, consumers, fields):
    """Chain an emitter with tap consumers (only tapped shapes pay)."""
    if not consumers:
        return emit
    n_values = sum(1 for spec in fields if spec[1] != "c")
    args = ["t"] + [f"v{i}" for i in range(n_values)]
    sinks = {f"sink{i}": sink for i, sink in enumerate((emit, *consumers))}
    return _positional_fn("emit_tapped", n_values,
                          [(name, args) for name in sinks], sinks, __file__)


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
                 bus: Optional["TraceBus"] = None) -> None:
        self._records = records
        self._bus = bus
        self.category = category

    def emit(self, t_us: float, event: str, **fields: Any) -> None:
        """Append one record at simulated time ``t_us``."""
        record: Dict[str, Any] = {"t": t_us, "cat": self.category, "ev": event}
        if fields:
            record.update(fields)
        self._records.append(record)
        if self._bus is not None and self._bus._taps:
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

        if self._bus is None:
            return emit
        return _tee(emit, self._bus.bind_taps(category, event, specs),
                    specs)


class RingTraceChannel:
    """Ring-backed trace channel: same API, columnar storage."""

    __slots__ = ("_ring", "_bus", "category")

    def __init__(self, ring: TraceRing, category: str,
                 bus: Optional["TraceBus"] = None) -> None:
        self._ring = ring
        self._bus = bus
        self.category = category

    def emit(self, t_us: float, event: str, **fields: Any) -> None:
        """Append one record at simulated time ``t_us``."""
        self._ring.append_generic(self.category, event, t_us, fields)
        if self._bus is not None and self._bus._taps:
            self._bus.dispatch_generic(self.category, event, t_us, fields)

    def emitter(self, event: str, fields: Sequence[FieldSpec]):
        """A prebound positional emitter for one record shape.

        When the bus holds streaming taps for ``(category, event)`` the
        returned emitter tees the same positional values into each tap's
        consumer — the online-statistics path pays no dict build and no
        record decode.
        """
        emit = self._ring.emitter(self.category, event, fields)
        if self._bus is None:
            return emit
        return _tee(emit,
                    self._bus.bind_taps(self.category, event, fields),
                    fields)


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

    **Taps.**  :meth:`add_tap` registers a streaming consumer for one
    ``(category, event)`` pair (see
    :class:`repro.telemetry.streaming.StreamingStats`).  Channels handed
    out *after* registration tee emitted records into the tap: prebound
    positional emitters call the tap's bound consumer with the same
    positional values (no dict built), generic ``emit(**fields)`` sites
    dispatch the kwargs dict.  Untapped shapes pay nothing.
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
        #: (category, event) -> list of binder callables; a binder takes
        #: the site's field declaration and returns ``fn(t, *values)``
        #: (or None to decline that shape).
        self._taps: Dict[tuple, list] = {}
        #: Bound-consumer cache for generic ``emit(**fields)`` sites,
        #: keyed by (category, event, field-name tuple) — kwargs order is
        #: stable per call site, so each site binds once, not per record.
        self._generic_taps: Dict[tuple, list] = {}

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
    def add_tap(self, category: str, event: str, binder) -> None:
        """Register a streaming consumer for ``(category, event)``.

        ``binder(fields)`` is called once per instrumentation site that
        binds an emitter for the pair, with the site's field declaration;
        it returns a positional consumer ``fn(t, *values)`` or ``None``
        to decline.  Register taps *before* components bind channels
        (the Testbed builds Telemetry — and its taps — first).
        """
        self._taps.setdefault((category, event), []).append(binder)

    def bind_taps(self, category: str, event: str,
                  fields: Sequence[FieldSpec]) -> List:
        """Bound consumers for one shape (empty for untapped shapes)."""
        binders = self._taps.get((category, event))
        if not binders:
            return []
        consumers = []
        for binder in binders:
            consumer = binder(tuple(fields))
            if consumer is not None:
                consumers.append(consumer)
        return consumers

    def dispatch_generic(self, category: str, event: str, t_us: float,
                         fields: Dict[str, Any]) -> None:
        """Tee one generic ``emit(**fields)`` record into the taps."""
        key = (category, event, tuple(fields))
        consumers = self._generic_taps.get(key)
        if consumers is None:
            binders = self._taps.get((category, event))
            if binders:
                specs = tuple((name, "o") for name in fields)
                consumers = [c for c in (b(specs) for b in binders)
                             if c is not None]
            else:
                consumers = []
            self._generic_taps[key] = consumers
        if consumers:
            values = fields.values()
            for consumer in consumers:
                consumer(t_us, *values)

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


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL trace file back into a list of records."""
    records: List[Dict[str, Any]] = []
    with open(path, "r") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
