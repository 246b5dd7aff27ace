"""Binary columnar trace storage: the TraceBus ring backend.

The legacy trace backend appends one dict per record.  At saturation the
queue/driver/hw categories emit one record per packet movement, so a
traced run allocates hundreds of thousands of dicts whose keys repeat a
handful of *shapes* — (category, event, field names) combinations.  This
module stores those records columnar instead:

* each shape owns one typed column per field — ``array('q')`` for ints,
  ``array('d')`` for floats, ``array('b')`` for bools, an interned
  string-id column (``array('I')`` into a shared string table) for
  strings, and a plain list for anything else;
* a single global ``array('I')`` of shape ids preserves emission order;
* records are *decoded* back into dicts lazily — only when a consumer
  (summarize, span reconstruction, ``write_jsonl``) actually asks — and
  the decoded list is cached, so summarize + attribution share one
  decode pass.

Decoded records compare equal to the dicts the legacy backend builds,
field order included, so JSONL output is byte-identical.

Two emission paths feed a ring:

* :meth:`TraceRing.emitter` returns a prebound positional emitter for
  one shape.  Hot, monomorphic instrumentation sites (qdisc enqueue,
  driver pull, hw push/pop, aggregate build, tx completion) register
  their shape once and then pay a few C-level appends per record — no
  kwargs dict, no per-record key hashing.  Field kinds are *declared*;
  the typed columns reject mistyped values loudly (``array('q')``
  raises on floats) rather than storing garbage.
* :meth:`TraceRing.append_generic` serves ``TraceChannel.emit(**fields)``:
  kinds are inferred per record and the (names, kinds) tuple keys a
  shape cache, so polymorphic or rare sites keep the flexible API.

Bounded mode (``capacity=N``) turns the store into an amortised ring:
once the buffer holds ``2*N`` records the oldest ``len - N`` are evicted
in one columnar compaction (amortised O(1) per emit) and counted in
:attr:`TraceRing.dropped`.  The default is unbounded, matching the
legacy backend.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["TraceRing", "FieldSpec"]

#: One field of a shape: ``(name, kind)`` with kind in ``'q'`` (int),
#: ``'d'`` (float), ``'b'`` (bool), ``'s'`` (interned string), ``'o'``
#: (arbitrary object), or ``(name, 'c', value)`` for a constant field
#: that is stored nowhere and injected at decode time.
FieldSpec = Tuple[Any, ...]

_KINDS = frozenset("qdbso")


class _Shape:
    """Storage for one (category, event, fields) record shape."""

    __slots__ = ("sid", "category", "event", "fields", "times", "cols",
                 "appends", "plan")

    def __init__(self, sid: int, category: str, event: str,
                 fields: Sequence[FieldSpec], strings: List[str],
                 string_ids: Dict[str, int]) -> None:
        self.sid = sid
        self.category = category
        self.event = event
        self.fields = tuple(fields)
        self.times = array("d")
        cols: List[Any] = []
        appends: List[Callable[[Any], None]] = []
        plan: List[Tuple[str, str, Any]] = []
        for spec in self.fields:
            name, kind = spec[0], spec[1]
            if kind == "c":
                plan.append((name, "c", spec[2]))
                continue
            if kind not in _KINDS:
                raise ValueError(f"unknown field kind {kind!r} for {name!r}")
            if kind == "q":
                col: Any = array("q")
                appends.append(col.append)
            elif kind == "d":
                col = array("d")
                appends.append(col.append)
            elif kind == "b":
                col = array("b")
                appends.append(col.append)
            elif kind == "s":
                col = array("I")
                appends.append(_make_str_append(col.append, strings,
                                                string_ids))
            else:  # 'o'
                col = []
                appends.append(col.append)
            cols.append(col)
            plan.append((name, kind, col))
        self.cols = tuple(cols)
        self.appends = tuple(appends)
        self.plan = tuple(plan)

    def compact(self, drop: int) -> None:
        """Forget this shape's oldest ``drop`` records."""
        if drop:
            del self.times[:drop]
            for col in self.cols:
                del col[:drop]


def _make_str_append(ids_append: Callable[[int], None], strings: List[str],
                     string_ids: Dict[str, int]) -> Callable[[str], None]:
    def append_str(value: str) -> None:
        sid = string_ids.get(value)
        if sid is None:
            sid = len(strings)
            string_ids[value] = sid
            strings.append(value)
        ids_append(sid)
    return append_str


def _infer_kind(value: Any) -> str:
    tp = type(value)
    if tp is bool:
        return "b"
    if tp is int:
        return "q"
    if tp is float:
        return "d"
    if tp is str:
        return "s"
    return "o"


class TraceRing:
    """Columnar, shape-segregated trace record store.

    ``capacity=None`` grows without bound (legacy semantics); an integer
    keeps only the newest ``capacity`` records, counting evictions in
    :attr:`dropped`.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.dropped = 0
        self._order = array("I")
        self._shapes: List[_Shape] = []
        self._generic_shapes: Dict[Tuple[Any, ...], _Shape] = {}
        self._strings: List[str] = []
        self._string_ids: Dict[str, int] = {}
        self._decoded: Optional[List[Dict[str, Any]]] = None
        self._decoded_dropped = -1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._order)

    def _new_shape(self, category: str, event: str,
                   fields: Sequence[FieldSpec]) -> _Shape:
        shape = _Shape(len(self._shapes), category, event, fields,
                       self._strings, self._string_ids)
        self._shapes.append(shape)
        return shape

    # ------------------------------------------------------------------
    # Emission: prebound fast path
    # ------------------------------------------------------------------
    def emitter(self, category: str, event: str,
                fields: Sequence[FieldSpec]) -> Callable[..., None]:
        """A positional emitter ``fn(t, *values)`` for one shape.

        ``values`` follow the non-constant fields in declaration order.
        The closure reduces one record to an order append, a timestamp
        append, and one column append per field.
        """
        shape = self._new_shape(category, event, fields)
        order_append = self._order.append
        t_append = shape.times.append
        appends = shape.appends
        sid = shape.sid
        if self.capacity is not None:
            # Bounded mode: same arity specialisation as the unbounded
            # emitters below, plus one len/compare against the eviction
            # threshold — the eviction itself stays amortised in
            # _maybe_evict, which only runs when the threshold trips.
            maybe_evict = self._maybe_evict
            threshold = 2 * self.capacity
            order = self._order
            n = len(appends)
            if n == 3:
                a0, a1, a2 = appends

                def emit_b3(t: float, v0: Any, v1: Any, v2: Any) -> None:
                    order_append(sid)
                    t_append(t)
                    a0(v0)
                    a1(v1)
                    a2(v2)
                    if len(order) >= threshold:
                        maybe_evict()
                return emit_b3
            if n == 2:
                a0, a1 = appends

                def emit_b2(t: float, v0: Any, v1: Any) -> None:
                    order_append(sid)
                    t_append(t)
                    a0(v0)
                    a1(v1)
                    if len(order) >= threshold:
                        maybe_evict()
                return emit_b2
            if n == 4:
                a0, a1, a2, a3 = appends

                def emit_b4(t: float, v0: Any, v1: Any, v2: Any,
                            v3: Any) -> None:
                    order_append(sid)
                    t_append(t)
                    a0(v0)
                    a1(v1)
                    a2(v2)
                    a3(v3)
                    if len(order) >= threshold:
                        maybe_evict()
                return emit_b4
            if n == 1:
                a0, = appends

                def emit_b1(t: float, v0: Any) -> None:
                    order_append(sid)
                    t_append(t)
                    a0(v0)
                    if len(order) >= threshold:
                        maybe_evict()
                return emit_b1
            if n == 5:
                a0, a1, a2, a3, a4 = appends

                def emit_b5(t: float, v0: Any, v1: Any, v2: Any, v3: Any,
                            v4: Any) -> None:
                    order_append(sid)
                    t_append(t)
                    a0(v0)
                    a1(v1)
                    a2(v2)
                    a3(v3)
                    a4(v4)
                    if len(order) >= threshold:
                        maybe_evict()
                return emit_b5
            if n == 0:
                def emit_b0(t: float) -> None:
                    order_append(sid)
                    t_append(t)
                    if len(order) >= threshold:
                        maybe_evict()
                return emit_b0

            def emit_bounded(t: float, *values: Any) -> None:
                order_append(sid)
                t_append(t)
                for do_append, value in zip(appends, values):
                    do_append(value)
                if len(order) >= threshold:
                    maybe_evict()

            return emit_bounded
        n = len(appends)
        if n == 0:
            def emit0(t: float) -> None:
                order_append(sid)
                t_append(t)
            return emit0
        if n == 1:
            a0, = appends

            def emit1(t: float, v0: Any) -> None:
                order_append(sid)
                t_append(t)
                a0(v0)
            return emit1
        if n == 2:
            a0, a1 = appends

            def emit2(t: float, v0: Any, v1: Any) -> None:
                order_append(sid)
                t_append(t)
                a0(v0)
                a1(v1)
            return emit2
        if n == 3:
            a0, a1, a2 = appends

            def emit3(t: float, v0: Any, v1: Any, v2: Any) -> None:
                order_append(sid)
                t_append(t)
                a0(v0)
                a1(v1)
                a2(v2)
            return emit3
        if n == 4:
            a0, a1, a2, a3 = appends

            def emit4(t: float, v0: Any, v1: Any, v2: Any, v3: Any) -> None:
                order_append(sid)
                t_append(t)
                a0(v0)
                a1(v1)
                a2(v2)
                a3(v3)
            return emit4
        if n == 5:
            a0, a1, a2, a3, a4 = appends

            def emit5(t: float, v0: Any, v1: Any, v2: Any, v3: Any,
                      v4: Any) -> None:
                order_append(sid)
                t_append(t)
                a0(v0)
                a1(v1)
                a2(v2)
                a3(v3)
                a4(v4)
            return emit5
        if n == 6:
            a0, a1, a2, a3, a4, a5 = appends

            def emit6(t: float, v0: Any, v1: Any, v2: Any, v3: Any,
                      v4: Any, v5: Any) -> None:
                order_append(sid)
                t_append(t)
                a0(v0)
                a1(v1)
                a2(v2)
                a3(v3)
                a4(v4)
                a5(v5)
            return emit6

        def emit_n(t: float, *values: Any) -> None:
            order_append(sid)
            t_append(t)
            for do_append, value in zip(appends, values):
                do_append(value)
        return emit_n

    # ------------------------------------------------------------------
    # Emission: generic kwargs path
    # ------------------------------------------------------------------
    def append_generic(self, category: str, event: str, t: float,
                       fields: Dict[str, Any]) -> None:
        """Store one ``emit(**fields)`` record, inferring column kinds."""
        names = tuple(fields)
        kinds = tuple(_infer_kind(value) for value in fields.values())
        key = (category, event, names, kinds)
        shape = self._generic_shapes.get(key)
        if shape is None:
            shape = self._new_shape(category, event,
                                    tuple(zip(names, kinds)))
            self._generic_shapes[key] = shape
        self._order.append(shape.sid)
        shape.times.append(t)
        for do_append, value in zip(shape.appends, fields.values()):
            do_append(value)
        if self.capacity is not None:
            self._maybe_evict()

    # ------------------------------------------------------------------
    # Bounded mode
    # ------------------------------------------------------------------
    def _maybe_evict(self) -> None:
        capacity = self.capacity
        order = self._order
        if capacity is None or len(order) < 2 * capacity:
            return
        drop = len(order) - capacity
        per_shape = [0] * len(self._shapes)
        for sid in order[:drop]:
            per_shape[sid] += 1
        for shape in self._shapes:
            shape.compact(per_shape[shape.sid])
        del order[:drop]
        self.dropped += drop
        self._decoded = None

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, Any]]:
        """All retained records as dicts, in emission order (cached)."""
        decoded = self._decoded
        if (decoded is not None and len(decoded) == len(self._order)
                and self._decoded_dropped == self.dropped):
            return decoded
        decoded = list(self.iter_records())
        self._decoded = decoded
        self._decoded_dropped = self.dropped
        return decoded

    def tail(self, n: int) -> List[Dict[str, Any]]:
        """Decode only the newest ``n`` records (failure evidence).

        Skipping the prefix costs one pass over the order array to
        position each shape's cursor — no prefix records are decoded.
        """
        if n <= 0:
            return []
        decoded = self._decoded
        if (decoded is not None and len(decoded) == len(self._order)
                and self._decoded_dropped == self.dropped):
            return decoded[-n:]
        order = self._order
        skip = max(0, len(order) - n)
        cursors = [0] * len(self._shapes)
        for sid in order[:skip]:
            cursors[sid] += 1
        shapes = self._shapes
        strings = self._strings
        out: List[Dict[str, Any]] = []
        for sid in order[skip:]:
            shape = shapes[sid]
            i = cursors[sid]
            cursors[sid] = i + 1
            record: Dict[str, Any] = {
                "t": shape.times[i],
                "cat": shape.category,
                "ev": shape.event,
            }
            for name, kind, col in shape.plan:
                if kind == "c":
                    record[name] = col
                elif kind == "s":
                    record[name] = strings[col[i]]
                elif kind == "b":
                    record[name] = bool(col[i])
                else:
                    record[name] = col[i]
            out.append(record)
        return out

    def iter_records(self):
        """Decode records one at a time (no caching) — streaming writes.

        Reuses the cached decode when it is current, so a ``records()``
        consumer and a streaming consumer share one pass.
        """
        decoded = self._decoded
        if (decoded is not None and len(decoded) == len(self._order)
                and self._decoded_dropped == self.dropped):
            yield from decoded
            return
        shapes = self._shapes
        strings = self._strings
        cursors = [0] * len(shapes)
        for sid in self._order:
            shape = shapes[sid]
            i = cursors[sid]
            cursors[sid] = i + 1
            record: Dict[str, Any] = {
                "t": shape.times[i],
                "cat": shape.category,
                "ev": shape.event,
            }
            for name, kind, col in shape.plan:
                if kind == "c":
                    record[name] = col
                elif kind == "s":
                    record[name] = strings[col[i]]
                elif kind == "b":
                    record[name] = bool(col[i])
                else:
                    record[name] = col[i]
            yield record
