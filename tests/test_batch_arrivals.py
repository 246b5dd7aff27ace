"""Batched arrival generation: chunk generators and the BatchSource.

The contract under test is *bit-equivalence to the legacy path*: a
``BatchSource`` replaying ``cbr_chunks`` timestamps must fire at exactly
the floats a ``PeriodicTimer``'s repeated ``now + interval`` left fold
produces, chunking must never change the chain, and the engine's
``schedule_call`` fast path must share ordering semantics (tie-break
sequence numbers included) with the Event-based ``schedule``.
"""

from __future__ import annotations

import itertools

import pytest
from numpy.random import default_rng

from repro.sim.batch import BatchSource
from repro.sim.engine import PeriodicTimer, SimulationError, Simulator
from repro.traffic.arrivals import cbr_chunks, poisson_chunks


def _take(iterator, n_chunks):
    return list(itertools.islice(iterator, n_chunks))


class TestCbrChunks:
    def test_matches_periodic_timer_left_fold(self):
        """The chain must be the same left fold of double adds a
        re-arming timer performs — bit-identical floats, not just
        approximately equal ones."""
        interval = 10.0 / 3.0  # denormal-free but non-representable step
        legacy = []
        t = interval
        for _ in range(10_000):
            legacy.append(t)
            t = t + interval
        chunked = [
            t for chunk in _take(cbr_chunks(interval, interval, 256), 40)
            for t in chunk
        ]
        assert chunked[:len(legacy)] == legacy  # exact float equality

    def test_chunk_size_does_not_change_the_chain(self):
        interval = 7.7
        a = [t for c in _take(cbr_chunks(interval, interval, 16), 64)
             for t in c]
        b = [t for c in _take(cbr_chunks(interval, interval, 1024), 1)
             for t in c]
        assert a[:1024] == b

    def test_yields_python_floats(self):
        chunk = next(cbr_chunks(5.0, 5.0, 8))
        assert all(type(t) is float for t in chunk)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            next(cbr_chunks(0.0, 0.0))
        with pytest.raises(ValueError):
            next(cbr_chunks(0.0, 1.0, chunk_size=0))


class TestPoissonChunks:
    def test_chunk_size_invariant_for_fixed_stream(self):
        a = [t for c in _take(poisson_chunks(0.0, 100.0, 42, 32), 32)
             for t in c]
        b = [t for c in _take(poisson_chunks(0.0, 100.0, 42, 1024), 1)
             for t in c]
        assert a[:1024] == b

    def test_accepts_prebuilt_generator(self):
        a = [t for c in _take(poisson_chunks(0.0, 50.0, default_rng(7), 64),
                              4) for t in c]
        b = [t for c in _take(poisson_chunks(0.0, 50.0, default_rng(7), 64),
                              4) for t in c]
        assert a == b
        assert all(t2 > t1 for t1, t2 in zip(a, a[1:]))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            next(poisson_chunks(0.0, 0.0, 1))
        with pytest.raises(ValueError):
            next(poisson_chunks(0.0, 1.0, 1, chunk_size=-4))


class TestBatchSource:
    def test_fires_at_exact_timestamps(self, sim):
        times = [[1.0, 2.5, 4.0], [5.5, 9.0]]
        fired = []
        source = BatchSource(sim, iter(times), lambda t: fired.append(sim.now))
        source.start()
        sim.run()
        assert fired == [1.0, 2.5, 4.0, 5.5, 9.0]
        assert source.fired == 5
        assert not source.active

    def test_one_live_heap_entry_per_source(self, sim):
        source = BatchSource(sim, iter([[1.0, 2.0, 3.0]]), lambda t: None)
        source.start()
        assert sim.pending_events == 1  # only the next arrival is armed
        sim.run(until_us=1.5)
        assert sim.pending_events == 1

    def test_stop_makes_pending_fire_inert(self, sim):
        fired = []
        source = BatchSource(
            sim, cbr_chunks(1.0, 1.0), lambda t: fired.append(sim.now)
        ).start()
        sim.run(until_us=3.5)
        source.stop()
        sim.run(until_us=10.0)
        assert fired == [1.0, 2.0, 3.0]
        assert source.fired == 3

    def test_stop_from_within_callback(self, sim):
        source = BatchSource(sim, cbr_chunks(1.0, 1.0), lambda t: source.stop())
        source = source.start()
        sim.run(until_us=10.0)
        assert source.fired == 1

    def test_empty_iterator_is_inert(self, sim):
        source = BatchSource(sim, iter([]), lambda t: None).start()
        assert not source.active
        sim.run()
        assert source.fired == 0

    def test_empty_chunk_raises(self, sim):
        source = BatchSource(sim, iter([[]]), lambda t: None)
        with pytest.raises(ValueError):
            source.start()

    def test_fired_counts_across_chunk_boundaries(self, sim):
        source = BatchSource(
            sim, cbr_chunks(1.0, 1.0, chunk_size=4), lambda t: None
        ).start()
        sim.run(until_us=10.5)
        assert source.fired == 10

    def test_latency_fires_late_and_reports_the_stamp(self, sim):
        seen = []
        source = BatchSource(
            sim, iter([[1.0, 2.5], [4.0]]),
            lambda t: seen.append((t, sim.now)), latency_us=0.75,
        ).start()
        assert sim.pending_events == 1  # still one entry per source
        sim.run()
        assert seen == [(1.0, 1.75), (2.5, 3.25), (4.0, 4.75)]
        assert source.fired == 3 and not source.active

    def test_stop_lets_arrivals_already_under_way_fire(self, sim):
        """Stamps before the stop instant fire even when their latency
        carries them past it; stamps at or after it never do."""
        seen = []
        source = BatchSource(
            sim, cbr_chunks(1.0, 1.0), seen.append, latency_us=2.5,
        ).start()
        sim.run(until_us=4.0)       # 1.0 fired at 3.5; 2.0 and 3.0 in flight
        source.stop()
        assert not source.active
        sim.run(until_us=20.0)
        assert seen == [1.0, 2.0, 3.0]
        assert sim.pending_events == 0

    def test_negative_latency_raises(self, sim):
        with pytest.raises(ValueError):
            BatchSource(sim, iter([[1.0]]), lambda t: None, latency_us=-1.0)

    def test_equivalent_to_periodic_timer_interleaving(self):
        """A BatchSource and a PeriodicTimer driving the same interval
        interleave identically with a competing event stream — the
        fire-then-re-arm order consumes tie-break seqs the same way."""
        def drive(make_source):
            sim = Simulator()
            log = []
            source = make_source(sim, lambda: log.append(("arrival", sim.now)))
            source.start()

            def competing():
                log.append(("other", sim.now))
            for k in range(1, 12):
                sim.schedule(float(k), competing)  # ties on every integer t
            sim.run(until_us=11.0)
            source.stop()
            return log

        batch_log = drive(lambda sim, cb: BatchSource(
            sim, cbr_chunks(1.0, 1.0), lambda t: cb()))
        timer_log = drive(lambda sim, cb: PeriodicTimer(sim, 1.0, cb))
        assert batch_log == timer_log


class TestScheduleCallFastPath:
    def test_schedule_call_orders_with_schedule(self, sim):
        order = []
        sim.schedule(5.0, lambda: order.append("event"))
        sim.schedule_call(5.0, order.append, "call-arg")
        sim.schedule_call(5.0, lambda: order.append("call-noarg"))
        sim.run()
        assert order == ["event", "call-arg", "call-noarg"]

    def test_schedule_call_at_verbatim_timestamp(self, sim):
        seen = []
        sim.schedule_call_at(3.25, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.25]

    def test_schedule_call_counts_as_pending_and_processed(self, sim):
        sim.schedule_call(1.0, lambda: None)
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_processed == 1

    def test_past_scheduling_raises(self, sim):
        sim.schedule_call(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_call(-0.5, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_call_at(0.5, lambda: None)
