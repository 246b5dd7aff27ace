"""Ring trace backend: decode equivalence, wraparound, streamed writes.

The columnar ring (`repro.telemetry.ring.TraceRing`) must be
observationally identical to the legacy dict backend: decoded records
compare equal — key order, value types, and JSONL bytes included — for
both the generic ``emit(**fields)`` path and the prebound positional
emitters.  Bounded mode must keep exactly the newest ``capacity``
records and count every eviction.
"""

from __future__ import annotations

import json

import pytest

from repro.telemetry.ring import TraceRing
from repro.telemetry.trace import TraceBus

try:
    from hypothesis import example, given, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the dev image
    HAVE_HYPOTHESIS = False


def _mixed_emits(bus: TraceBus) -> None:
    """Emit a fixed polymorphic sequence through the generic path."""
    queue = bus.channel("queue")
    agg = bus.channel("agg")
    queue.emit(1.0, "enqueue", station=3, flow=7, pid=0, backlog=1)
    queue.emit(1.5, "enqueue", station=0, flow=2, pid=1, backlog=2)
    agg.emit(2.0, "built", station=3, pids=[0, 1], airtime_us=120.25)
    queue.emit(2.5, "drop", layer="qdisc", reason="overlimit",
               station=None, flow=7, pid=0)
    agg.emit(3.0, "tx_done", station=3, agg=1, ok=True, retries=0)
    agg.emit(3.5, "tx_done", station=3, agg=2, ok=False, retries=2)
    # Same event name, different field set: a second shape.
    queue.emit(4.0, "enqueue", station=1, pid=2)
    # No fields at all.
    bus.channel("meta").emit(4.5, "measurement_start")


class TestDecodeEquivalence:
    def test_generic_emit_matches_dict_backend(self):
        ring = TraceBus(backend="ring")
        legacy = TraceBus(backend="dict")
        _mixed_emits(ring)
        _mixed_emits(legacy)

        assert ring.records == legacy.records
        for got, want in zip(ring.records, legacy.records):
            # Equality is not enough: key order drives the JSONL bytes,
            # and bool/int compare equal across types.
            assert list(got) == list(want)
            for key in want:
                assert type(got[key]) is type(want[key]), key
        assert ring.dumps() == legacy.dumps()

    def test_prebound_emitter_matches_dict_backend(self):
        fields = (("layer", "c", "qdisc"), ("station", "o"), ("flow", "q"),
                  ("pid", "q"), ("backlog", "q"))
        wide = tuple((f"f{i}", "q") for i in range(8))  # >6: emit_n path

        def drive(bus: TraceBus) -> None:
            channel = bus.channel("queue")
            enq = channel.emitter("enqueue", fields)
            big = channel.emitter("wide", wide)
            ok = bus.channel("agg").emitter(
                "tx_done", (("agg", "q"), ("ok", "b")))
            enq(1.0, 3, 7, 0, 1)
            enq(2.0, None, 2, 1, 2)
            big(2.5, *range(8))
            ok(3.0, 1, True)
            ok(3.5, 2, False)

        ring = TraceBus(backend="ring")
        legacy = TraceBus(backend="dict")
        drive(ring)
        drive(legacy)
        assert ring.records == legacy.records
        for got, want in zip(ring.records, legacy.records):
            assert list(got) == list(want)
            for key in want:
                assert type(got[key]) is type(want[key]), key
        assert ring.dumps() == legacy.dumps()

    def test_interleaved_decode_reuses_and_invalidates_cache(self):
        bus = TraceBus(backend="ring")
        channel = bus.channel("queue")
        channel.emit(1.0, "enqueue", pid=0)
        first = bus.records
        assert bus.records is first  # cached
        channel.emit(2.0, "enqueue", pid=1)
        second = bus.records
        assert second is not first  # emit invalidated the cache
        assert [r["pid"] for r in second] == [0, 1]

    def test_int_column_rejects_floats_loudly(self):
        ring = TraceRing()
        emit = ring.emitter("queue", "enqueue", (("pid", "q"),))
        with pytest.raises(TypeError):
            emit(1.0, 2.5)


class TestBoundedRing:
    def test_wraparound_keeps_newest_and_counts_dropped(self):
        capacity = 100
        bounded = TraceBus(backend="ring", capacity=capacity)
        reference = TraceBus(backend="dict")
        for bus in (bounded, reference):
            queue = bus.channel("queue")
            emit = queue.emitter("dequeue", (("pid", "q"),))
            for i in range(350):
                if i % 3 == 0:
                    queue.emit(float(i), "enqueue", pid=i, backlog=i % 7)
                else:
                    emit(float(i), i)

        # Evictions happen in O(1)-amortised batches at 2x capacity, so
        # retention floats between capacity and 2*capacity - 1...
        assert capacity <= len(bounded) < 2 * capacity
        # ...but retained records are exactly the newest suffix.
        assert bounded.dropped == 350 - len(bounded)
        assert bounded.records == reference.records[-len(bounded):]
        assert reference.dropped == 0

    def test_decode_cache_tracks_evictions(self):
        bus = TraceBus(backend="ring", capacity=4)
        emit = bus.channel("queue").emitter("dequeue", (("pid", "q"),))
        for i in range(4):
            emit(float(i), i)
        assert [r["pid"] for r in bus.records] == [0, 1, 2, 3]
        for i in range(4, 9):
            emit(float(i), i)
        assert bus.dropped > 0
        pids = [r["pid"] for r in bus.records]
        assert pids == list(range(9 - len(bus), 9))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TraceBus(backend="ring", capacity=0)
        with pytest.raises(ValueError):
            TraceBus(backend="dict", capacity=10)
        with pytest.raises(ValueError):
            TraceBus(backend="tape")


class TestStreamedWrite:
    def test_write_jsonl_matches_dumps(self, tmp_path):
        """Satellite regression: the streaming writer's bytes equal the
        in-memory serialisation, on both backends."""
        for backend in ("ring", "dict"):
            bus = TraceBus(backend=backend)
            _mixed_emits(bus)
            path = bus.write_jsonl(str(tmp_path / f"{backend}.trace.jsonl"))
            assert path.read_text() == bus.dumps()

    def test_backends_write_identical_files(self, tmp_path):
        ring = TraceBus(backend="ring")
        legacy = TraceBus(backend="dict")
        _mixed_emits(ring)
        _mixed_emits(legacy)
        a = ring.write_jsonl(str(tmp_path / "a.jsonl"))
        b = legacy.write_jsonl(str(tmp_path / "b.jsonl"))
        assert a.read_text() == b.read_text()
        # And the lines round-trip as JSON with the canonical key order.
        first = json.loads(a.read_text().splitlines()[0])
        assert list(first)[:3] == ["t", "cat", "ev"]


if HAVE_HYPOTHESIS:
    _VALUES = st.one_of(
        st.booleans(),
        st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.sampled_from(["alpha", "beta", "", "qdisc"]),
        st.none(),
    )
    _GENERIC = st.tuples(
        st.just("generic"),
        st.sampled_from(["enqueue", "dequeue", "drop"]),
        st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), _VALUES,
                        max_size=4),
    )
    _PRE0 = st.tuples(st.just("pre0"),
                      st.integers(min_value=0, max_value=30),
                      st.booleans())
    _PRE1 = st.tuples(st.just("pre1"),
                      st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from(["x", "y", "zz"]))
    _OPS = st.lists(st.one_of(_GENERIC, _PRE0, _PRE1, st.just("decode")),
                    max_size=120)

    @given(ops=_OPS)
    # 32 = 2 * capacity: the eviction branch runs on every invocation.
    @example(ops=[("generic", "enqueue", {})] * 32)
    def test_interleaved_emit_decode_property(ops):
        """Any interleaving of generic emits, prebound emits, and decode
        checkpoints leaves the ring equal to the dict reference — and a
        bounded ring equal to the newest suffix of it."""
        capacity = 16
        ring = TraceBus(backend="ring")
        bounded = TraceBus(backend="ring", capacity=capacity)
        legacy = TraceBus(backend="dict")
        buses = (ring, bounded, legacy)
        pre0 = [bus.channel("queue").emitter(
            "pulled", (("station", "q"), ("ok", "b"))) for bus in buses]
        pre1 = [bus.channel("tx").emitter(
            "tx", (("ac", "c", "BE"), ("airtime_us", "d"), ("name", "s")))
            for bus in buses]

        t = 0.0
        for op in ops:
            t += 1.0
            if op == "decode":
                assert ring.records == legacy.records
                n = len(bounded)
                assert bounded.records == legacy.records[-n:] if n else True
            elif op[0] == "generic":
                _, event, fields = op
                for bus in buses:
                    bus.channel("queue").emit(t, event, **fields)
            elif op[0] == "pre0":
                for emit in pre0:
                    emit(t, op[1], op[2])
            else:
                for emit in pre1:
                    emit(t, op[1], op[2])

        assert ring.records == legacy.records
        assert ring.dumps() == legacy.dumps()
        n = len(bounded)
        assert n + bounded.dropped == len(legacy.records)
        assert n < 2 * capacity
        if n:
            assert bounded.records == legacy.records[-n:]
            # Once the ring has evicted, the dump leads with the
            # ring_overflow marker announcing the truncation.
            header = (
                json.dumps({"t": 0.0, "cat": "meta", "ev": "ring_overflow",
                            "dropped": bounded.dropped},
                           separators=(",", ":")) + "\n"
                if bounded.dropped > 0 else ""
            )
            assert bounded.dumps() == header + "".join(
                json.dumps(r, separators=(",", ":")) + "\n"
                for r in legacy.records[-n:]
            )
