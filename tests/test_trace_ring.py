"""Ring trace backend: decode equivalence, wraparound, streamed writes.

The columnar ring (`repro.telemetry.ring.TraceRing`) must be
observationally identical to the dict reference backend: decoded records
compare equal — key order, value types, and JSONL bytes included — for
both the generic ``emit(**fields)`` path and the prebound positional
emitters.  Bounded mode must keep exactly the newest ``capacity``
records and count every eviction.
"""

from __future__ import annotations

import json

import pytest

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
        wide = tuple((f"f{i}", "q") for i in range(8))

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

    def test_emit_after_decode_shows_in_the_next_decode(self):
        bus = TraceBus(backend="ring")
        channel = bus.channel("queue")
        channel.emit(1.0, "enqueue", pid=0)
        assert [r["pid"] for r in bus.records] == [0]
        channel.emit(2.0, "enqueue", pid=1)
        assert [r["pid"] for r in bus.records] == [0, 1]

    def test_int_column_rejects_floats_loudly(self):
        emit = TraceBus().channel("queue").emitter(
            "enqueue", (("pid", "q"),))
        with pytest.raises(TypeError):
            emit(1.0, 2.5)

    @pytest.mark.parametrize("kind, box", [("q", lambda v: v),
                                           ("l", lambda v: [0, v])])
    def test_int_columns_reject_what_int64_cannot_hold(self, kind, box):
        """A 32-bit column widens to 64 bits, never further; an ``'l'``
        field's items obey the same rule as an int field."""
        emit = TraceBus(backend="ring").channel("queue").emitter(
            "enqueue", (("pid", kind),))
        emit(1.0, box(2 ** 63 - 1))
        emit(2.0, box(-2 ** 63))
        for value in (2 ** 63, -2 ** 63 - 1):
            with pytest.raises(OverflowError):
                emit(3.0, box(value))
        with pytest.raises(TypeError):
            emit(4.0, box(1.5))

    def test_order_widens_at_the_65537th_shape(self):
        """Shape ids start in a 16-bit order array; registering shape
        65,537 converts it once and rebinds every earlier emitter, so
        records before and after keep their emission order."""
        bus = TraceBus(backend="ring", capacity=4)
        channel = bus.channel("queue")
        first = channel.emitter("first", (("pid", "q"),))
        first(0.0, 0)
        ring = bus._store
        assert ring._order.typecode == "H"
        for i in range(1, 1 << 16):
            ring.store("queue", f"e{i}", (("pid", "q"),))
        last = channel.emitter("last", (("pid", "q"),))
        assert ring._order.typecode == "I"
        emitted = [("first", 0)]
        for i in range(1, 6):
            first(2.0 * i, i)
            last(2.0 * i + 1, i)
            emitted += [("first", i), ("last", i)]
        assert bus.dropped > 0
        assert [(r["ev"], r["pid"]) for r in bus.records] == \
            emitted[bus.dropped:]


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


class TestBytesPerRecord:
    """What a traced run's ring costs per record, pinned on the categories
    of the benchmark's spans workload."""

    @pytest.fixture(scope="class")
    def ring(self):
        from repro.experiments import workloads
        from repro.experiments.config import three_station_rates
        from repro.experiments.testbed import Testbed, TestbedOptions
        from repro.mac.ap import Scheme
        from repro.telemetry import TelemetryConfig

        testbed = Testbed(three_station_rates(), TestbedOptions(
            scheme=Scheme.AIRTIME, seed=1, telemetry=TelemetryConfig(
                trace=True,
                categories=("queue", "agg", "hw", "driver", "tx"))))
        workloads.saturating_udp_download(testbed)
        testbed.run(1.0)
        return testbed.telemetry.trace._store

    def test_per_packet_queue_ints_take_four_bytes(self, ring):
        shapes = {(s.category, s.event): s for s in ring._shapes}
        for event in ("enqueue", "dequeue", "flow_new", "flow_reclaim"):
            shape = shapes["queue", event]
            ints = [shape.cols[k] for _, kind, k in shape.plan
                    if kind == "q"]
            assert ints and all(col.itemsize == 4 for col in ints), event
        assert len(shapes["queue", "enqueue"].times) > 10_000

    def test_no_column_holds_lists(self, ring):
        """Lists of pids live in flat int columns; the only object
        columns left hold a drop's station, which may be None."""
        objects = [(s.category, s.event, name) for s in ring._shapes
                   for name, kind, _ in s.plan if kind == "o"]
        assert objects == [("queue", "drop", "station")]
        for shape in ring._shapes:
            for col in shape.cols:
                assert not any(isinstance(value, list) for value in col)

    def test_at_most_36_bytes_per_record(self, ring):
        total = ring._order.itemsize * len(ring._order)
        for shape in ring._shapes:
            for col in (shape.times, *shape.cols):
                total += col.itemsize * len(col) if hasattr(
                    col, "itemsize") else 8 * len(col)
        assert total / len(ring) <= 36


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
        st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
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
    _PRE2 = st.tuples(st.just("pre2"),
                      st.lists(st.integers(min_value=-(2 ** 63),
                                           max_value=2 ** 63 - 1),
                               max_size=4))
    _OPS = st.lists(st.one_of(_GENERIC, _PRE0, _PRE1, _PRE2,
                              st.just("decode")),
                    max_size=120)

    #: A tap per event: ``wanted`` reads carried fields, the constant
    #: ``ac`` and fields no record of the event carries (``absent``).
    _TAPS = (
        ("queue", "enqueue", {"a": None, "absent": "dflt", "b": 0}),
        ("queue", "dequeue", {"c": -1, "absent": None}),
        ("queue", "drop", {"d": "none", "a": 1.5}),
        ("queue", "pulled", {"ok": None, "absent": 7, "station": None}),
        ("tx", "tx", {"name": None, "ac": "VI", "absent": (),
                      "airtime_us": None}),
        ("agg", "built", {"pids": None, "absent": 0}),
    )

    @given(ops=_OPS)
    # 32 = 2 * capacity: the eviction branch runs on every invocation.
    @example(ops=[("generic", "enqueue", {})] * 32)
    # An int column that widens to 64 bits on its first record...
    @example(ops=[("generic", "enqueue", {"a": 2 ** 31}),
                  ("generic", "enqueue", {"a": -1}), "decode"])
    # ...and one that widens after the bounded ring has evicted.
    @example(ops=[("generic", "dequeue", {"c": i}) for i in range(40)]
             + [("generic", "dequeue", {"c": -(2 ** 40)}), "decode",
                ("generic", "dequeue", {"c": 7})])
    # An int-list field: empty, widening and mixed lists, through an
    # eviction of its flat item column.
    @example(ops=[("pre2", []), ("pre2", [2 ** 40]), "decode",
                  ("pre2", [1, -(2 ** 63), 2 ** 31 - 1, 0]), ("pre2", [])]
             + [("pre2", [i, i + 1]) for i in range(30)] + ["decode"])
    def test_interleaved_emit_decode_property(ops):
        """Any interleaving of generic emits, prebound emits, and decode
        checkpoints leaves the ring equal to the dict reference — and a
        bounded ring equal to the newest suffix of it — and calls every
        backend's taps with the same arguments.  Ints span int64, so
        32-bit columns widen wherever a value first needs it."""
        capacity = 16
        ring = TraceBus(backend="ring")
        bounded = TraceBus(backend="ring", capacity=capacity)
        legacy = TraceBus(backend="dict")
        buses = (ring, bounded, legacy)
        logs = ([], [], [])
        for bus, log in zip(buses, logs):
            for category, event, wanted in _TAPS:
                bus.add_tap(category, event,
                            lambda *args, ev=event, log=log:
                            log.append((ev, args)),
                            wanted)
        pre0 = [bus.channel("queue").emitter(
            "pulled", (("station", "q"), ("ok", "b"))) for bus in buses]
        pre1 = [bus.channel("tx").emitter(
            "tx", (("ac", "c", "BE"), ("airtime_us", "d"), ("name", "s")))
            for bus in buses]
        pre2 = [bus.channel("agg").emitter("built", (("pids", "l"),))
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
            elif op[0] == "pre2":
                for emit in pre2:
                    emit(t, list(op[1]))
            else:
                for emit in pre1:
                    emit(t, op[1], op[2])

        assert ring.records == legacy.records
        assert ring.dumps() == legacy.dumps()
        # A tail decodes no prefix: its cursors skip to where it starts.
        assert ring.tail(5) == legacy.tail(5)
        assert logs[0] == logs[1] == logs[2]
        assert len(logs[2]) == len(legacy.records)  # every event is tapped
        # The constant is resolved from the shape, the absent field
        # from its default: (t, name, ac, absent, airtime_us).
        assert all(args[2:4] == ("BE", ()) for ev, args in logs[2]
                   if ev == "tx")
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
