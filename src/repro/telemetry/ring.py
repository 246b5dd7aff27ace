"""Binary columnar trace storage: the TraceBus ring backend.

At saturation the queue/driver/hw categories emit one record per packet
movement, so a traced run stores hundreds of thousands of records whose
keys repeat a handful of *shapes* — (category, event, field names)
combinations.  This module stores them columnar:

* each shape owns one typed column per field — an int column for ints
  (``array('i')``, widened in place to ``array('q')`` by the first value
  that does not fit 32 bits), ``array('d')`` for floats, ``array('b')``
  for bools, an interned string-id column (``array('I')`` into a shared
  string table) for strings, one flat int column plus an ``array('I')``
  of lengths for a list of ints, and a plain list for anything else;
* a single global ``array('H')`` of shape ids preserves emission order
  (``array('I')`` from the 65,537th shape on);
* records are decoded back into dicts only when a consumer asks
  (``write_jsonl``, ``records``, ``tail``), one pass per call.

Decoded records compare equal to the dicts the dict reference backend
builds, field order included, so JSONL output is byte-identical.

The ring has no emit method of its own.  :meth:`TraceRing.store`
registers a shape and returns the statements that append one of its
records; :class:`repro.telemetry.trace.TraceBus` compiles them, with the
shape's tap calls, into one function of the shape's exact arity.  Field
kinds are *declared* (or inferred once per generic shape); the typed
columns reject mistyped values loudly (an int column raises on floats,
and on ints beyond 64 bits) rather than storing garbage.

Bounded mode (``capacity=N``) turns the store into an amortised ring:
once the buffer holds ``2*N`` records the oldest ``len - N`` are evicted
in one columnar compaction (amortised O(1) per emit) and counted in
:attr:`TraceRing.dropped`.  The default is unbounded.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["TraceRing", "FieldSpec"]

#: One field of a shape: ``(name, kind)`` with kind in ``'q'`` (int),
#: ``'d'`` (float), ``'b'`` (bool), ``'s'`` (interned string), ``'l'``
#: (list of ints), ``'o'`` (arbitrary object), or ``(name, 'c', value)``
#: for a constant field that is stored nowhere and injected at decode
#: time.
FieldSpec = Tuple[Any, ...]

#: Column typecode per stored kind; ``'o'`` columns are plain lists.
#: Int columns (``'q'`` and the items of ``'l'``) start 32-bit.
_TYPECODES = {"q": "i", "l": "i", "d": "d", "b": "b", "s": "I", "o": None}


class _Shape:
    """Storage for one (category, event, fields) record shape.

    ``plan`` holds ``(name, kind, k)`` per field, ``k`` indexing
    ``cols`` (an ``'l'`` field's lengths are ``cols[k + 1]``), or
    ``(name, 'c', value)``.  Readers go through ``cols``: a widened int
    column replaces its slot there.
    """

    __slots__ = ("sid", "category", "event", "fields", "times", "cols",
                 "plan")

    def __init__(self, sid: int, category: str, event: str,
                 fields: Sequence[FieldSpec]) -> None:
        self.sid = sid
        self.category = category
        self.event = event
        self.fields = tuple(fields)
        self.times = array("d")
        cols: List[Any] = []
        plan: List[Tuple[str, str, Any]] = []
        for spec in self.fields:
            name, kind = spec[0], spec[1]
            if kind == "c":
                plan.append((name, "c", spec[2]))
                continue
            if kind not in _TYPECODES:
                raise ValueError(f"unknown field kind {kind!r} for {name!r}")
            typecode = _TYPECODES[kind]
            plan.append((name, kind, len(cols)))
            cols.append(array(typecode) if typecode else [])
            if kind == "l":
                cols.append(array("I"))
        self.cols = cols
        self.plan = tuple(plan)

    def compact(self, drop: int) -> None:
        """Forget this shape's oldest ``drop`` records."""
        if drop:
            del self.times[:drop]
            cols = self.cols
            for _, kind, k in self.plan:
                if kind == "l":
                    del cols[k][:sum(cols[k + 1][:drop])]
                    del cols[k + 1][:drop]
                elif kind != "c":
                    del cols[k][:drop]


class TraceRing:
    """Columnar, shape-segregated trace record store.

    ``capacity=None`` grows without bound; an integer keeps only the
    newest ``capacity`` records, counting evictions in :attr:`dropped`.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.dropped = 0
        self._order = array("H")
        self._shapes: List[_Shape] = []
        #: Each shape's emitter globals, rebound if ``_order`` widens.
        self._envs: List[Dict[str, Any]] = []
        self._strings: List[str] = []
        self._string_ids: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._order)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def store(self, category: str, event: str, fields: Sequence[FieldSpec]
              ) -> Tuple[List[str], Dict[str, Any]]:
        """Register a new shape; return ``(lines, env)`` that append one
        record of it.

        ``lines`` run in a function of ``t`` and ``v0 .. v<n-1>``, the
        shape's non-constant fields in declaration order, with ``env``
        as its globals: an order append, a timestamp append and one
        column append per field (a string is looked up in the intern
        table first), then, when bounded, one length check against the
        eviction threshold.  An int field's append sits in a ``try``
        whose ``except OverflowError`` copies the column into
        ``array('q')``, stores the value there and rebinds the append,
        so the column widens once, in place.
        """
        shape = _Shape(len(self._shapes), category, event, fields)
        self._shapes.append(shape)
        if shape.sid == 1 << 16:
            # Shape ids no longer fit the 16-bit order: widen it once,
            # here at registration, never per record.
            self._order = array("I", self._order)
            for env in self._envs:
                env["order_append"] = self._order.append
                if "order" in env:
                    env["order"] = self._order
        env: Dict[str, Any] = {"order_append": self._order.append,
                               "t_append": shape.times.append,
                               "sid": shape.sid,
                               "cols": shape.cols,
                               "array": array,
                               "string_ids": self._string_ids,
                               "intern": self._intern}
        self._envs.append(env)
        lines = ["order_append(sid)", "t_append(t)"]
        widening = []
        stored = [(kind, k) for _, kind, k in shape.plan if kind != "c"]
        for i, (kind, k) in enumerate(stored):
            # ``fromlist`` stores all of a list's items or none.
            add = "fromlist" if kind == "l" else "append"
            env[f"a{i}"] = getattr(shape.cols[k], add)
            if kind == "s":
                lines += [f"s = string_ids.get(v{i})",
                          f"if s is None: s = intern(v{i})",
                          f"a{i}(s)"]
            elif kind in ("q", "l"):
                widening.append(f"a{i}")
                lines += [f"try: a{i}(v{i})",
                          f"except OverflowError: cols[{k}] = w = "
                          f"array('q', cols[{k}]); a{i} = w.{add}; "
                          f"w.{add}(v{i})"]
                if kind == "l":
                    env[f"n{i}"] = shape.cols[k + 1].append
                    lines.append(f"n{i}(len(v{i}))")
            else:
                lines.append(f"a{i}(v{i})")
        if widening:
            lines.insert(0, f"global {', '.join(widening)}")
        if self.capacity is not None:
            env.update(order=self._order, threshold=2 * self.capacity,
                       evict=self._evict)
            lines.append("if len(order) >= threshold: evict()")
        return lines, env

    def _intern(self, value: str) -> int:
        sid = self._string_ids[value] = len(self._strings)
        self._strings.append(value)
        return sid

    def _evict(self) -> None:
        """Drop all but the newest ``capacity`` records (bounded mode)."""
        order = self._order
        drop = len(order) - self.capacity
        per_shape = [0] * len(self._shapes)
        for sid in islice(order, drop):
            per_shape[sid] += 1
        for shape in self._shapes:
            shape.compact(per_shape[shape.sid])
        del order[:drop]
        self.dropped += drop

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """All retained records as dicts, in emission order."""
        return list(self.iter_records())

    def tail(self, n: int) -> List[Dict[str, Any]]:
        """The newest ``n`` records as dicts (failure evidence)."""
        if n <= 0:
            return []
        return list(self.iter_records(max(0, len(self._order) - n)))

    def iter_records(self, skip: int = 0) -> Iterator[Dict[str, Any]]:
        """Decode records one at a time, in emission order.

        The oldest ``skip`` records are passed over with one walk of the
        order array that positions each shape's cursor; none of them is
        decoded.
        """
        shapes = self._shapes
        strings = self._strings
        order = self._order
        cursors = [0] * len(shapes)
        for sid in islice(order, skip):
            cursors[sid] += 1
        #: (shape id, column) -> where the next ``'l'`` record's items start.
        starts: Dict[Tuple[int, int], int] = {}
        for sid in islice(order, skip, None):
            shape = shapes[sid]
            cols = shape.cols
            i = cursors[sid]
            cursors[sid] = i + 1
            record: Dict[str, Any] = {
                "t": shape.times[i],
                "cat": shape.category,
                "ev": shape.event,
            }
            for name, kind, k in shape.plan:
                if kind == "c":
                    record[name] = k
                elif kind == "s":
                    record[name] = strings[cols[k][i]]
                elif kind == "b":
                    record[name] = bool(cols[k][i])
                elif kind == "l":
                    start = starts.get((sid, k))
                    if start is None:
                        start = sum(islice(cols[k + 1], i))
                    end = starts[sid, k] = start + cols[k + 1][i]
                    record[name] = cols[k][start:end].tolist()
                else:
                    record[name] = cols[k][i]
            yield record
