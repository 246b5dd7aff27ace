"""Tests for the airtime fairness scheduler (Algorithm 3)."""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.core.airtime import AirtimeScheduler


class Harness:
    """Fake AP: per-station backlogs, a bounded hardware queue."""

    def __init__(self, hw_depth=2, quantum_us=1000.0, **kwargs):
        self.backlogs: Dict[int, int] = {}
        self.hw: List[int] = []
        self.hw_depth = hw_depth
        self.built: List[int] = []
        self.scheduler = AirtimeScheduler(
            has_backlog=lambda s: self.backlogs.get(s, 0) > 0,
            build_aggregate=self._build,
            hw_full=lambda: len(self.hw) >= self.hw_depth,
            quantum_us=quantum_us,
            **kwargs,
        )

    def _build(self, station: int) -> int:
        assert self.backlogs.get(station, 0) > 0
        self.backlogs[station] -= 1
        self.hw.append(station)
        self.built.append(station)
        return 1

    def give_backlog(self, station: int, packets: int) -> None:
        self.backlogs[station] = self.backlogs.get(station, 0) + packets
        self.scheduler.wake(station)

    def drain_hw(self) -> List[int]:
        out, self.hw = self.hw, []
        return out


class TestBasicScheduling:
    def test_schedules_nothing_without_stations(self):
        h = Harness()
        h.scheduler.schedule()
        assert h.hw == []

    def test_fills_hw_queue_to_depth(self):
        h = Harness(hw_depth=2)
        h.give_backlog(1, 10)
        h.scheduler.schedule()
        assert len(h.hw) == 2

    def test_stops_when_backlog_exhausted(self):
        h = Harness(hw_depth=5)
        h.give_backlog(1, 3)
        h.scheduler.schedule()
        assert len(h.hw) == 3

    def test_wake_is_idempotent(self):
        h = Harness()
        h.give_backlog(1, 5)
        h.scheduler.wake(1)
        h.scheduler.wake(1)
        assert list(h.scheduler.new_stations).count(1) == 1

    def test_empty_station_is_removed_from_lists(self):
        h = Harness()
        h.give_backlog(1, 1)
        h.scheduler.schedule()
        h.drain_hw()
        h.scheduler.schedule()  # station 1 now empty
        assert 1 not in h.scheduler.new_stations
        assert 1 not in h.scheduler.old_stations


class TestDeficitFairness:
    def test_station_with_negative_deficit_is_skipped(self):
        h = Harness(hw_depth=1, quantum_us=1000.0)
        h.give_backlog(1, 10)
        h.give_backlog(2, 10)
        # Station 1 has burned far more airtime than its quantum.
        h.scheduler.report_tx_airtime(1, 10_000.0)
        h.scheduler.schedule()
        assert h.drain_hw() == [2]

    def test_deficit_recovers_through_quantum_topups(self):
        h = Harness(hw_depth=1, quantum_us=1000.0)
        h.give_backlog(1, 10)
        h.scheduler.report_tx_airtime(1, 2_500.0)
        # Only station 1 exists: the loop tops up its deficit until it can
        # transmit again.
        h.scheduler.schedule()
        assert h.drain_hw() == [1]
        assert h.scheduler.deficits[1] > 0

    def test_airtime_proportional_service(self):
        """A station whose transmissions cost 3x the airtime gets ~1/3 the
        transmission opportunities."""
        h = Harness(hw_depth=1, quantum_us=1000.0)
        h.give_backlog(1, 1000)
        h.give_backlog(2, 1000)
        counts = {1: 0, 2: 0}
        for _ in range(400):
            h.scheduler.schedule()
            for s in h.drain_hw():
                counts[s] += 1
                # Station 1 is slow: 3000us per aggregate; station 2: 1000us.
                h.scheduler.report_tx_airtime(s, 3000.0 if s == 1 else 1000.0)
        assert counts[2] / counts[1] == pytest.approx(3.0, rel=0.15)

    def test_rx_airtime_charged_when_enabled(self):
        h = Harness(quantum_us=1000.0)
        h.give_backlog(1, 1)  # activation grants one quantum
        h.scheduler.report_rx_airtime(1, 500.0)
        assert h.scheduler.deficits[1] == 500.0

    def test_rx_airtime_ignored_when_disabled(self):
        h = Harness(account_rx=False, quantum_us=1000.0)
        h.give_backlog(1, 1)
        h.scheduler.report_rx_airtime(1, 500.0)
        assert h.scheduler.deficits[1] == 1000.0

    def test_activation_grants_a_fresh_quantum(self):
        h = Harness(quantum_us=1000.0)
        h.give_backlog(1, 1)
        assert h.scheduler.deficits[1] == 1000.0


class TestSparseStationOptimisation:
    def _charge(self, h, airtime_us=1500.0):
        """Report TX-completion airtime for everything drained."""
        drained = h.drain_hw()
        for station in drained:
            h.scheduler.report_tx_airtime(station, airtime_us)
        return drained

    def test_new_station_served_before_old_backlog(self):
        h = Harness(hw_depth=1, quantum_us=1000.0)
        h.give_backlog(1, 100)
        h.scheduler.schedule()
        assert self._charge(h) == [1]  # station 1 spends > its quantum
        # Station 2 appears: it must be served next even though station 1
        # still has backlog.
        h.give_backlog(2, 1)
        h.scheduler.schedule()
        assert self._charge(h) == [2]

    def test_disabled_optimisation_appends_to_old_list(self):
        h = Harness(hw_depth=1, quantum_us=1000.0, sparse_enabled=False)
        h.give_backlog(1, 100)
        h.scheduler.schedule()
        h.drain_hw()  # no airtime charged: station 1 still has deficit? no
        h.scheduler.report_tx_airtime(1, 500.0)  # cheap TX, deficit stays +
        h.give_backlog(2, 1)
        h.scheduler.schedule()
        # Round-robin order: station 1 is at the head of the old list and
        # still has a positive deficit, so it is served first.
        assert h.drain_hw() == [1]

    def test_sparse_station_gets_only_one_priority_round(self):
        """Anti-gaming: after its priority service the station moves on to
        the old list and cannot re-enter new_stations while listed."""
        h = Harness(hw_depth=1, quantum_us=1000.0)
        h.give_backlog(1, 100)
        h.scheduler.schedule()
        self._charge(h)
        h.give_backlog(2, 2)
        h.scheduler.schedule()
        assert self._charge(h) == [2]  # priority round, costs > quantum
        # Station 2 overspent: the next service goes to station 1.
        h.scheduler.schedule()
        assert self._charge(h) == [1]
        assert h.scheduler.listed[2] == "old"
        h.scheduler.wake(2)  # must not re-join new while still listed
        assert 2 not in h.scheduler.new_stations


class TestRobustness:
    def test_build_failure_removes_station(self):
        """A backlogged station whose build yields nothing must not spin
        the scheduler forever."""
        calls = []

        def bad_build(station):
            calls.append(station)
            return 0

        sched = AirtimeScheduler(
            has_backlog=lambda s: True,
            build_aggregate=bad_build,
            hw_full=lambda: False,
        )
        sched.wake(1)
        sched.schedule()
        assert calls == [1]
        assert 1 not in sched.new_stations
        assert 1 not in sched.old_stations


class TestTraceDetach:
    def test_set_trace_none_fully_detaches(self):
        from repro.telemetry import TraceBus

        h = Harness()
        bus = TraceBus()
        h.scheduler.set_trace(bus, now_fn=lambda: 1.0)
        h.scheduler.wake(1)
        h.scheduler.report_tx_airtime(1, 100.0)
        h.scheduler.report_rx_airtime(1, 50.0)
        h.scheduler.drop(1)
        assert [(r["ev"], r.get("dir")) for r in bus.records] == [
            ("station_enter", None), ("deficit_charge", "tx"),
            ("deficit_charge", "rx"), ("station_drop", None),
        ]

        h.scheduler.set_trace(None)
        h.scheduler.wake(1)
        h.scheduler.report_tx_airtime(1, 100.0)
        h.scheduler.report_rx_airtime(1, 50.0)
        h.scheduler.drop(1)
        assert len(bus) == 4
