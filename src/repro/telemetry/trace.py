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

One emission path serves both kinds of site (see DESIGN.md §11).  Each
record shape — (category, event, fields) — gets one generated function
of its exact arity that stores the record and calls the shape's taps.
A hot site binds it once through :meth:`TraceChannel.emitter`; a
generic ``emit(**fields)`` site infers the field kinds and reuses the
function cached for its (category, event, names, kinds).

Two stores supply the storage statements (``store(category, event,
fields) -> (lines, env)``):

* ``"ring"`` (default) — the binary columnar store of
  :class:`repro.telemetry.ring.TraceRing`: typed per-shape columns with
  interned strings, decoded into dicts only when a consumer asks.
* ``"dict"`` — :class:`RecordList`, one dict literal per record, kept
  as the semantic reference; the ring's decoded records must compare
  equal to it (``tests/test_trace_ring.py`` holds the equivalence
  suite).

The category vocabulary lives in
:data:`repro.telemetry.config.TRACE_CATEGORIES`.
"""

from __future__ import annotations

import itertools
import json
import math
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

__all__ = ["TraceBus", "TraceChannel", "RecordList", "TapConsumer",
           "iter_trace_file", "load_trace"]


_serial = itertools.count()

#: Column kind of a generic ``emit(**fields)`` value, by exact type.
_KIND_OF_TYPE = {bool: "b", int: "q", float: "d", str: "s"}


def _compile_emitter(lines: List[str], env: Dict[str, Any], taps,
                     fields: Sequence[FieldSpec]) -> Callable[..., None]:
    """Compile a store's ``lines`` and the shape's taps into one function.

    The result is ``fn(t, v0, .., v<n-1>)`` over the shape's non-constant
    ``fields``, generated for that exact arity (the ``namedtuple``
    trick, so no ``*values`` is packed or unpacked), with ``env`` as its
    globals: it runs ``lines``, which store the record, then calls every
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
    body = list(lines)
    for i, (handler, wanted) in enumerate(taps):
        env[f"h{i}"] = handler
        args = ["t"]
        for name, default in wanted.items():
            if name in positional:
                args.append(f"v{positional.index(name)}")
            else:
                env[f"h{i}_{len(args)}"] = consts.get(name, default)
                args.append(f"h{i}_{len(args)}")
        body.append(f"h{i}({', '.join(args)})")
    name = f"emit_{next(_serial)}"
    source = f"def {name}({params}):" + "".join(f"\n    {line}"
                                                 for line in body)
    exec(compile(source, __file__, "exec"), env)
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


class RecordList:
    """The dict reference store: one dict per record, in a list.

    Its storage statement is a single dict literal, so it never touches
    columns; the ring's decoded records must equal these dicts.
    """

    dropped = 0

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None:
            raise ValueError("capacity requires the ring backend")
        self._records: List[Dict[str, Any]] = []

    def __len__(self) -> int:
        return len(self._records)

    def store(self, category: str, event: str, fields: Sequence[FieldSpec]
              ) -> Tuple[List[str], Dict[str, Any]]:
        """``(lines, env)`` appending one record of this shape as a dict."""
        env: Dict[str, Any] = {"append": self._records.append,
                               "cat": category, "ev": event}
        items = ['"t": t', '"cat": cat', '"ev": ev']
        index = 0
        for j, spec in enumerate(fields):
            if spec[1] == "c":
                env[f"k{j}"] = spec[2]
                items.append(f"{spec[0]!r}: k{j}")
            else:
                items.append(f"{spec[0]!r}: v{index}")
                index += 1
        return [f"append({{{', '.join(items)}}})"], env

    def records(self) -> List[Dict[str, Any]]:
        return self._records

    def iter_records(self, skip: int = 0) -> Iterator[Dict[str, Any]]:
        return itertools.islice(self._records, skip, None)

    def tail(self, n: int) -> List[Dict[str, Any]]:
        return self._records[-n:] if n > 0 else []


_STORES = {"ring": TraceRing, "dict": RecordList}


class TraceChannel:
    """A category-bound emitter handed to one instrumentation site.

    Components take one per category (``bus.channel("queue")``) and
    either bind a positional emitter per shape once (:meth:`emitter`,
    the per-packet sites) or call
    :meth:`emit` with keyword fields (markers and other rare records).
    """

    __slots__ = ("_bus", "category")

    def __init__(self, category: str, bus: "TraceBus") -> None:
        self._bus = bus
        self.category = category

    def emit(self, t_us: float, event: str, **fields: Any) -> None:
        """Append one record at simulated time ``t_us``."""
        self._bus.generic_emitter(self.category, event, fields)(
            t_us, *fields.values())

    def emitter(self, event: str, fields: Sequence[FieldSpec]):
        """A positional emitter ``fn(t, *values)`` for one record shape.

        ``values`` bind to the non-constant fields in declaration order;
        ``(name, 'c', value)`` fields are injected without occupying a
        positional slot.
        """
        return self._bus.emitter(self.category, event, tuple(fields))


class TraceBus:
    """Collects trace records from every instrumented layer of one run.

    ``categories`` filters what gets recorded: an empty sequence means
    *everything*.  ``channel()`` returns ``None`` for filtered categories,
    which is what makes per-category filtering free at the emission site.
    The ``meta`` category (markers such as the measurement-window start)
    is never filtered — summaries need it to window their tables.

    ``backend`` selects the storage: ``"ring"`` (columnar, default) or
    ``"dict"`` (reference).  ``capacity`` bounds the ring to the newest
    N records (evictions are counted in :attr:`dropped`); it requires
    the ring backend.

    **Taps.**  :meth:`add_tap` registers a handler for one
    ``(category, event)`` pair (see :class:`TapConsumer`).  Every shape
    bound *after* registration calls it from the shape's generated
    emitter, right after the record is stored (no dict built).
    Untapped shapes pay nothing.
    """

    __slots__ = ("backend", "_store", "_filter", "_taps", "_generic")

    def __init__(self, categories: Sequence[str] = (),
                 backend: str = "ring",
                 capacity: Optional[int] = None) -> None:
        if backend not in _STORES:
            raise ValueError(f"unknown trace backend {backend!r}")
        self.backend = backend
        self._store = _STORES[backend](capacity)
        self._filter = frozenset(categories) if categories else None
        #: (category, event) -> [(handler, wanted)] in registration order.
        self._taps: Dict[tuple, list] = {}
        #: Emitters of generic ``emit(**fields)`` shapes, keyed by
        #: (category, event, field names, field kinds).
        self._generic: Dict[tuple, Callable[..., None]] = {}

    # ------------------------------------------------------------------
    def wants(self, category: str) -> bool:
        return (
            category == "meta"
            or self._filter is None
            or category in self._filter
        )

    def channel(self, category: str) -> Optional[TraceChannel]:
        """An emitter for ``category``, or ``None`` when filtered out."""
        if not self.wants(category):
            return None
        return TraceChannel(category, self)

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

    # ------------------------------------------------------------------
    # Emission: one generated function per shape
    # ------------------------------------------------------------------
    def emitter(self, category: str, event: str,
                fields: Sequence[FieldSpec]) -> Callable[..., None]:
        """The function that stores one record of a new shape and calls
        its taps: ``fn(t, *values)`` over the non-constant ``fields``."""
        lines, env = self._store.store(category, event, fields)
        return _compile_emitter(lines, env,
                                self._taps.get((category, event), ()), fields)

    def generic_emitter(self, category: str, event: str,
                        fields: Mapping[str, Any]) -> Callable[..., None]:
        """The emitter for ``emit(**fields)``, bound once per shape.

        Kinds are inferred from the values' exact types, so a site whose
        value types change gets one shape per combination.
        """
        names = tuple(fields)
        kinds = tuple([_KIND_OF_TYPE.get(type(value), "o")
                       for value in fields.values()])
        key = (category, event, names, kinds)
        emit = self._generic.get(key)
        if emit is None:
            emit = self._generic[key] = self.emitter(
                category, event, tuple(zip(names, kinds)))
        return emit

    # ------------------------------------------------------------------
    @property
    def records(self) -> List[Dict[str, Any]]:
        return self._store.records()

    @property
    def dropped(self) -> int:
        """Records evicted by a bounded ring (0 for unbounded/dict)."""
        return self._store.dropped

    def __len__(self) -> int:
        return len(self._store)

    def iter_records(self) -> Iterator[Dict[str, Any]]:
        """Records in emission order, decoding one at a time on the ring."""
        return self._store.iter_records()

    def tail(self, n: int) -> List[Dict[str, Any]]:
        """The newest ``n`` records as dicts (failure evidence)."""
        return self._store.tail(n)

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
    a JSON object carrying ``t`` / ``cat`` / ``ev``, with ``t`` a finite
    number (``Infinity`` and ``NaN`` parse as floats), raises
    ``ValueError("FILE:LINE: not a trace record")``.
    """
    with open(path, "r") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                valid = (isinstance(record, dict)
                         and _RECORD_KEYS <= record.keys()
                         and type(record["t"]) in (int, float)
                         and math.isfinite(record["t"]))
            except (ValueError, OverflowError):  # an int past float range
                valid = False
            if not valid:
                raise ValueError(f"{path}:{number}: not a trace record")
            yield record


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL trace file back into a list of records."""
    return list(iter_trace_file(path))
