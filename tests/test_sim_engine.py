"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim import engine
from repro.sim.engine import (
    US_PER_MS,
    US_PER_SEC,
    PeriodicTimer,
    SimulationError,
    Simulator,
    events_processed_total,
)


class TestScheduling:
    def test_single_event_runs_at_scheduled_time(self, sim):
        fired = []
        sim.schedule(10.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10.0]

    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(30.0, lambda: order.append("c"))
        sim.schedule(10.0, lambda: order.append("a"))
        sim.schedule(20.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_scheduling_order(self, sim):
        order = []
        for name in "abcd":
            sim.schedule(5.0, lambda n=name: order.append(n))
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_priority_breaks_ties_before_seq(self, sim):
        order = []
        sim.schedule(5.0, lambda: order.append("low"), priority=1)
        sim.schedule(5.0, lambda: order.append("high"), priority=0)
        sim.run()
        assert order == ["high", "low"]

    def test_schedule_in_past_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule(5.0, lambda: sim.schedule_at(20.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [20.0]

    def test_call_soon_runs_at_current_time(self, sim):
        times = []
        sim.schedule(7.0, lambda: sim.call_soon(lambda: times.append(sim.now)))
        sim.run()
        assert times == [7.0]

    def test_nested_scheduling_during_callback(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1.0, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(10.0, lambda: fired.append(1))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(10.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_cancel_from_earlier_event(self, sim):
        fired = []
        later = sim.schedule(10.0, lambda: fired.append("later"))
        sim.schedule(5.0, later.cancel)
        sim.run()
        assert fired == []

    def test_cancel_decrements_pending_events(self, sim):
        """Regression: cancelled events must not count as pending."""
        events = [sim.schedule(10.0 + i, lambda: None) for i in range(4)]
        assert sim.pending_events == 4
        events[0].cancel()
        events[2].cancel()
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0

    def test_cancel_after_firing_does_not_corrupt_counts(self, sim):
        """Cancelling an event that already ran must be a no-op."""
        fired = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until_us=1.5)
        fired.cancel()
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0

    def test_pending_consistent_with_step(self, sim):
        live = sim.schedule(1.0, lambda: None)
        dead = sim.schedule(2.0, lambda: None)
        dead.cancel()
        assert sim.pending_events == 1
        assert sim.step() is True
        assert sim.step() is False
        assert sim.pending_events == 0
        assert live.cancelled is False


class TestHeapCompaction:
    def test_compaction_drops_dead_entries(self, sim):
        events = [sim.schedule(1000.0 + i, lambda: None) for i in range(200)]
        for event in events[:150]:
            event.cancel()
        # Lazy compaction kicks in once dead entries dominate: the heap
        # must have shed most of the 150 corpses without being run.
        assert sim.pending_events == 50
        assert len(sim._queue) <= 100
        fired = []
        for event in events[150:]:
            event.callback = lambda: fired.append(1)  # type: ignore[misc]
        sim.run()
        assert sim.pending_events == 0

    def test_compaction_preserves_execution_order(self, sim):
        order = []
        keep = []
        for i in range(300):
            event = sim.schedule(float(1 + i % 7), lambda i=i: order.append(i))
            if i % 3 == 0:
                event.cancel()
            else:
                keep.append((i % 7, i))
        sim.run()
        expected = [i for _, i in sorted(keep)]
        assert order == expected

    def test_small_queues_never_compact(self, sim):
        events = [sim.schedule(10.0 + i, lambda: None) for i in range(10)]
        for event in events:
            event.cancel()
        # Below the threshold the corpses stay until popped — that's fine.
        assert sim.pending_events == 0
        sim.run()
        assert len(sim._queue) == 0


class TestEventCounters:
    def test_events_processed_per_simulator(self, sim):
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.schedule(100.0, lambda: None).cancel()
        sim.run()
        assert sim.events_processed == 5  # cancelled pop doesn't count

    def test_events_processed_total_is_global(self):
        before = events_processed_total()
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert events_processed_total() == before + 3

    def test_event_is_slotted(self):
        event = Simulator().schedule(1.0, lambda: None)
        assert not hasattr(event, "__dict__")
        with pytest.raises(AttributeError):
            event.arbitrary_attribute = 1

    def test_compact_threshold_constant_sane(self):
        assert engine._COMPACT_MIN_CANCELLED >= 2


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self, sim):
        sim.schedule(100.0, lambda: None)
        sim.run(until_us=50.0)
        assert sim.now == 50.0
        assert sim.pending_events == 1

    def test_run_until_resumes(self, sim):
        fired = []
        sim.schedule(100.0, lambda: fired.append(sim.now))
        sim.run(until_us=50.0)
        sim.run(until_us=150.0)
        assert fired == [100.0]
        assert sim.now == 150.0

    def test_run_until_advances_clock_even_with_empty_queue(self, sim):
        sim.run(until_us=42.0)
        assert sim.now == 42.0

    def test_run_until_nan_is_rejected(self, sim):
        # No event time compares below NaN: the bound would never bind.
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="NaN"):
            sim.run(until_us=float("nan"))
        assert sim.now == 0.0 and sim.pending_events == 1

    def test_step_runs_one_event(self, sim):
        order = []
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        assert sim.step() is True
        assert order == ["a"]
        assert sim.step() is True
        assert sim.step() is False

    def test_reentrant_run_raises(self, sim):
        def reenter():
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()

    def test_pending_events_counts_live_events(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending_events == 2
        sim.run()
        assert sim.pending_events == 0


class TestConversions:
    def test_sec_conversion(self):
        assert Simulator.sec(1.5) == 1.5 * US_PER_SEC

    def test_ms_conversion(self):
        assert Simulator.ms(2.0) == 2.0 * US_PER_MS

    def test_now_sec(self, sim):
        sim.schedule(US_PER_SEC, lambda: None)
        sim.run()
        assert sim.now_sec == 1.0


class TestPeriodicTimer:
    def test_fires_every_interval(self, sim):
        times = []
        timer = PeriodicTimer(sim, 10.0, lambda: times.append(sim.now))
        timer.start()
        sim.run(until_us=35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_first_delay_override(self, sim):
        times = []
        timer = PeriodicTimer(sim, 10.0, lambda: times.append(sim.now))
        timer.start(first_delay_us=0.0)
        sim.run(until_us=25.0)
        assert times == [0.0, 10.0, 20.0]

    def test_stop_halts_timer(self, sim):
        times = []
        timer = PeriodicTimer(sim, 10.0, lambda: times.append(sim.now))
        timer.start()
        sim.schedule(25.0, timer.stop)
        sim.run(until_us=100.0)
        assert times == [10.0, 20.0]

    def test_stop_from_within_callback(self, sim):
        times = []
        timer = PeriodicTimer(sim, 10.0, lambda: (times.append(sim.now), timer.stop()))
        timer.start()
        sim.run(until_us=100.0)
        assert times == [10.0]
