"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import (
    US_PER_MS,
    US_PER_SEC,
    PeriodicTimer,
    SimulationError,
    Simulator,
    Timer,
    events_processed_total,
)
from tests.reference_engine import EagerSimulator, EagerTimer


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

    def test_cancelled_entry_stays_pending_until_popped(self, sim):
        """``pending_events`` counts heap entries, cancelled ones too."""
        fired = []
        events = [sim.schedule(10.0 + i, lambda i=i: fired.append(i))
                  for i in range(4)]
        assert sim.pending_events == 4
        events[0].cancel()
        events[2].cancel()
        assert sim.pending_events == 4
        sim.run()
        assert fired == [1, 3]
        assert sim.pending_events == 0
        assert sim.events_processed == 2

    def test_cancel_after_firing_does_not_corrupt_counts(self, sim):
        """Cancelling an event that already ran must be a no-op."""
        fired = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until_us=1.5)
        fired.cancel()
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0

    def test_step_pops_a_cancelled_entry_without_firing(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("live"))
        dead = sim.schedule(2.0, lambda: fired.append("dead"))
        dead.cancel()
        assert sim.pending_events == 2
        assert sim.step() is True
        assert sim.step() is True  # the cancelled entry: runs nothing
        assert sim.step() is False
        assert fired == ["live"]
        assert sim.pending_events == 0
        assert sim.events_processed == 1


class TestHeapCompaction:
    """What compaction used to buy, without it: cancel and re-arm churn
    neither grows the heap nor reorders what runs."""

    def test_rearm_churn_leaves_one_entry(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        for i in range(1000):
            timer.arm(1000.0 + i)  # re-armed later every time
            if i % 3 == 1:
                timer.cancel()
        assert sim.pending_events == 1
        sim.run()
        assert fired == [1999.0]
        assert sim.events_processed == 1

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


class TestTimer:
    def test_rearm_later_fires_once_at_the_last_key(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.arm(10.0)
        sim.schedule_call(5.0, timer.arm, 20.0)
        sim.run()
        assert fired == [25.0]
        assert sim.events_processed == 2  # the stale pop at 10 is no event

    def test_rearm_earlier_pushes_and_the_stale_entry_runs_nothing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.arm(100.0)
        sim.schedule_call(10.0, timer.arm, 20.0)  # an RTO shrinking
        sim.run()
        assert fired == [30.0]
        assert sim.now == 100.0 and sim.pending_events == 0

    def test_rearm_from_own_callback(self, sim):
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.arm(5.0)

        timer = Timer(sim, tick)
        timer.arm(5.0)
        sim.run()
        assert fired == [5.0, 10.0, 15.0]
        assert timer.when is None

    def test_run_until_stops_between_stale_entry_and_rearmed_key(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.arm(10.0)
        sim.schedule_call(5.0, timer.arm, 25.0)  # now armed for t=30
        sim.run(until_us=20.0)  # pops the stale t=10 entry, re-pushes t=30
        assert fired == [] and sim.now == 20.0
        assert timer.when == 30.0 and sim.pending_events == 1
        sim.run(until_us=40.0)
        assert fired == [30.0]

    def test_stall_guard_trips_on_a_zero_delay_rearm_loop(self, sim):
        timer = Timer(sim, lambda: timer.arm(0.0))
        timer.arm(1.0)
        sim.set_stall_guard(50)
        with pytest.raises(SimulationError, match="no-progress stall"):
            sim.run(until_us=10.0)
        assert sim.now == 1.0

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            Timer(sim, lambda: None).arm(-1.0)


# ----------------------------------------------------------------------
# Timer against eager cancel + reschedule (tests/reference_engine.py)
# ----------------------------------------------------------------------
#: Few distinct delays, so keys collide on time (and then on priority).
_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 0.1, 0.2])
_N_TIMERS = 3
_OPS = st.one_of(
    st.tuples(st.just("arm"), st.integers(0, _N_TIMERS - 1), _DELAYS),
    st.tuples(st.just("cancel"), st.integers(0, _N_TIMERS - 1)),
    st.tuples(st.just("call"), _DELAYS, st.integers(0, 1)),
)


def _replay(sim, timer_cls, priorities, batches, untils):
    """Run one program; return what ran, when, and the seqs consumed.

    Every firing (a timer's or a plain ``schedule_call`` entry's) logs
    ``(now, label)`` and runs the next batch of ops, so timers get
    re-armed, earlier or later, and cancelled from inside callbacks,
    their own included.
    """
    log = []
    feed = iter(batches)
    calls = iter(range(10**9))

    def run_batch():
        for op in next(feed, ()):
            if op[0] == "arm":
                timers[op[1]].arm(op[2])
            elif op[0] == "cancel":
                timers[op[1]].cancel()
            else:
                sim.schedule_call(op[1], fire, ("call", next(calls)),
                                  priority=op[2])

    def fire(label):
        log.append((sim.now, label))
        run_batch()

    timers = [timer_cls(sim, lambda i=i: fire(("timer", i)), priority)
              for i, priority in enumerate(priorities)]
    run_batch()
    for until in sorted(untils):
        sim.run(until_us=until)
        log.append(("until", sim.now, tuple(t.when for t in timers)))
    sim.run()
    return log, sim.events_processed, repr(sim._seq)


@settings(max_examples=300, deadline=None)
@given(
    priorities=st.lists(st.integers(0, 1), min_size=_N_TIMERS,
                        max_size=_N_TIMERS),
    batches=st.lists(st.lists(_OPS, max_size=4), min_size=1, max_size=40),
    untils=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.7, 2.0, 2.6, 4.0, 9.0]),
                    max_size=3),
)
def test_timer_matches_eager_cancel_and_reschedule(priorities, batches,
                                                   untils):
    got = _replay(Simulator(), Timer, priorities, batches, untils)
    want = _replay(EagerSimulator(), EagerTimer, priorities, batches, untils)
    assert got == want
