"""Tests for the CoDel AQM and the per-station parameter tuner."""

from __future__ import annotations

from collections import deque

import pytest

from repro.core.codel import (
    CODEL_DEFAULT,
    CODEL_SLOW_STATION,
    CoDelParams,
    CoDelState,
    PerStationCoDelTuner,
    codel_dequeue,
)
from repro.core.packet import Packet


class FakeQueue:
    """Minimal queue satisfying CoDel's protocol."""

    def __init__(self):
        self.pkts = deque()

    def push(self, pkt):
        self.pkts.append(pkt)

    def pop_head(self):
        return self.pkts.popleft() if self.pkts else None

    def __len__(self):
        return len(self.pkts)


def fill(queue, n, enqueue_us=0.0):
    pkts = []
    for i in range(n):
        pkt = Packet(1, 1500, seq=i)
        pkt.enqueue_us = enqueue_us
        queue.push(pkt)
        pkts.append(pkt)
    return pkts


class TestNoDropRegime:
    def test_fresh_packets_pass_through(self):
        queue, state = FakeQueue(), CoDelState()
        fill(queue, 3, enqueue_us=0.0)
        # Sojourn 1ms < 5ms target: everything passes.
        for i in range(3):
            pkt = codel_dequeue(queue, state, 1_000.0, CODEL_DEFAULT)
            assert pkt is not None and pkt.seq == i
        assert state.drops == 0

    def test_empty_queue_returns_none(self):
        queue, state = FakeQueue(), CoDelState()
        assert codel_dequeue(queue, state, 0.0, CODEL_DEFAULT) is None

    def test_above_target_for_less_than_interval_does_not_drop(self):
        queue, state = FakeQueue(), CoDelState()
        fill(queue, 2, enqueue_us=0.0)
        # Sojourn 10ms > target but the 100ms interval has not elapsed.
        pkt = codel_dequeue(queue, state, 10_000.0, CODEL_DEFAULT)
        assert pkt is not None
        assert state.drops == 0
        assert state.first_above_time_us > 0

    def test_dip_below_target_resets_first_above(self):
        queue, state = FakeQueue(), CoDelState()
        fill(queue, 1, enqueue_us=0.0)
        codel_dequeue(queue, state, 10_000.0, CODEL_DEFAULT)
        assert state.first_above_time_us > 0
        fill(queue, 1, enqueue_us=99_000.0)
        codel_dequeue(queue, state, 100_000.0, CODEL_DEFAULT)  # sojourn 1ms
        assert state.first_above_time_us == 0.0


class TestDroppingRegime:
    def test_drops_begin_after_interval_above_target(self):
        queue, state = FakeQueue(), CoDelState()
        fill(queue, 50, enqueue_us=0.0)
        # First dequeue at t=10ms starts the clock.
        codel_dequeue(queue, state, 10_000.0, CODEL_DEFAULT)
        # 100ms later, still above target: drop occurs.
        dropped = []
        pkt = codel_dequeue(
            queue, state, 111_000.0, CODEL_DEFAULT, on_drop=dropped.append
        )
        assert pkt is not None
        assert len(dropped) == 1
        assert state.dropping

    def test_drop_callback_receives_the_dropped_packet(self):
        queue, state = FakeQueue(), CoDelState()
        pkts = fill(queue, 50, enqueue_us=0.0)
        codel_dequeue(queue, state, 10_000.0, CODEL_DEFAULT)
        dropped = []
        codel_dequeue(queue, state, 111_000.0, CODEL_DEFAULT, on_drop=dropped.append)
        assert dropped[0] is pkts[1]

    def test_drop_rate_escalates_with_count(self):
        """Successive drops must be spaced by interval/sqrt(count)."""
        queue, state = FakeQueue(), CoDelState()
        fill(queue, 500, enqueue_us=0.0)
        codel_dequeue(queue, state, 10_000.0, CODEL_DEFAULT)
        codel_dequeue(queue, state, 111_000.0, CODEL_DEFAULT)
        first_next = state.drop_next_us
        # Keep dequeueing past drop_next repeatedly; count must rise and
        # spacing shrink.
        now = first_next + 1
        codel_dequeue(queue, state, now, CODEL_DEFAULT)
        assert state.count >= 2
        spacing = state.drop_next_us - now
        assert spacing <= CODEL_DEFAULT.interval_us / (state.count - 1) ** 0.5 + 1

    def test_exits_dropping_when_sojourn_recovers(self):
        queue, state = FakeQueue(), CoDelState()
        fill(queue, 50, enqueue_us=0.0)
        codel_dequeue(queue, state, 10_000.0, CODEL_DEFAULT)
        codel_dequeue(queue, state, 111_000.0, CODEL_DEFAULT)
        assert state.dropping
        # Fresh packet with tiny sojourn: leave dropping state.
        queue.pkts.clear()
        fill(queue, 1, enqueue_us=111_000.0)
        codel_dequeue(queue, state, 112_000.0, CODEL_DEFAULT)
        assert not state.dropping

    def test_drops_counted_in_state(self):
        queue, state = FakeQueue(), CoDelState()
        fill(queue, 50, enqueue_us=0.0)
        codel_dequeue(queue, state, 10_000.0, CODEL_DEFAULT)
        codel_dequeue(queue, state, 111_000.0, CODEL_DEFAULT)
        assert state.drops == 1

    def test_reset_clears_control_state(self):
        state = CoDelState(first_above_time_us=5.0, drop_next_us=9.0, count=3,
                           lastcount=2, dropping=True)
        state.reset()
        assert not state.dropping
        assert state.count == 0
        assert state.first_above_time_us == 0.0


class TestPerStationTuner:
    def test_default_params_for_unknown_station(self):
        tuner = PerStationCoDelTuner()
        assert tuner.params_for(3) is CODEL_DEFAULT
        assert tuner.params_for(None) is CODEL_DEFAULT

    def test_slow_rate_switches_to_relaxed_params(self):
        tuner = PerStationCoDelTuner()
        tuner.update_rate(1, 7.2e6, now_us=0.0)
        assert tuner.params_for(1) is CODEL_SLOW_STATION

    def test_fast_rate_keeps_default(self):
        tuner = PerStationCoDelTuner()
        tuner.update_rate(1, 144.4e6, now_us=0.0)
        assert tuner.params_for(1) is CODEL_DEFAULT

    def test_threshold_is_12_mbps(self):
        tuner = PerStationCoDelTuner()
        tuner.update_rate(1, 11.9e6, now_us=0.0)
        assert tuner.params_for(1) is CODEL_SLOW_STATION
        tuner2 = PerStationCoDelTuner()
        tuner2.update_rate(1, 12.1e6, now_us=0.0)
        assert tuner2.params_for(1) is CODEL_DEFAULT

    def test_hysteresis_blocks_rapid_flapping(self):
        tuner = PerStationCoDelTuner()
        tuner.update_rate(1, 7e6, now_us=0.0)
        tuner.update_rate(1, 100e6, now_us=500_000.0)  # 0.5s later: blocked
        assert tuner.params_for(1) is CODEL_SLOW_STATION
        tuner.update_rate(1, 100e6, now_us=2_500_000.0)  # 2.5s later: allowed
        assert tuner.params_for(1) is CODEL_DEFAULT

    def test_disabled_tuner_never_switches(self):
        tuner = PerStationCoDelTuner(enabled=False)
        tuner.update_rate(1, 1e6, now_us=0.0)
        assert tuner.params_for(1) is CODEL_DEFAULT

    def test_slow_station_params_match_paper(self):
        assert CODEL_SLOW_STATION.target_us == 50_000.0
        assert CODEL_SLOW_STATION.interval_us == 300_000.0

    def test_default_params_are_stock_codel(self):
        assert CODEL_DEFAULT.target_us == 5_000.0
        assert CODEL_DEFAULT.interval_us == 100_000.0
