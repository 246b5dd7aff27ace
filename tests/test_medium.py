"""Tests for the DCF medium arbitration."""

from __future__ import annotations

import random

import pytest

from repro.core.packet import AccessCategory, Packet
from repro.mac.aggregation import Aggregate
from repro.mac.hwqueue import HardwareQueue
from repro.mac import medium as medium_mod
from repro.mac.medium import Medium, TransmissionRecord
from repro.phy.constants import CW_MAX, CW_MIN, CW_MIN_VO, T_DIFS_US
from repro.phy.rates import RATE_FAST
from repro.sim.engine import Simulator


class FakeNode:
    """Scriptable contender sending from a real hardware queue."""

    def __init__(self, station=0, ac=AccessCategory.BE):
        self.station = station
        self.ac = ac
        # Deep enough that a test can queue every frame up front.
        self.hw = HardwareQueue(depth=1000)
        self.completions = []

    def give(self, n=1, packets=1):
        for _ in range(n):
            self.hw.push(
                Aggregate(self.station, self.ac, RATE_FAST,
                          packets=[Packet(1, 1500) for _ in range(packets)])
            )

    def txop_complete(self, agg, success):
        self.completions.append((agg, success))


@pytest.fixture
def setup(sim):
    medium = Medium(sim, random.Random(1))
    records = []
    medium.add_observer(records.append)
    return sim, medium, records


class TestArbitration:
    def test_single_contender_transmits(self, setup):
        sim, medium, records = setup
        node = FakeNode()
        medium.attach(node, node.hw, is_ap=True)
        node.give(1)
        medium.notify_backlog()
        sim.run()
        assert len(records) == 1
        assert node.completions[0][1] is True

    def test_transmissions_serialise(self, setup):
        sim, medium, records = setup
        a, b = FakeNode(station=0), FakeNode(station=1)
        medium.attach(a, a.hw, is_ap=True)
        medium.attach(b, b.hw, is_ap=False)
        a.give(3)
        b.give(3)
        medium.notify_backlog()
        sim.run()
        assert len(records) == 6
        # No two transmissions overlap in time.
        intervals = sorted((r.start_us, r.start_us + r.airtime_us) for r in records)
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert s2 >= e1 - 1e-6

    def test_grant_includes_difs_and_backoff(self, setup):
        sim, medium, records = setup
        node = FakeNode()
        medium.attach(node, node.hw, is_ap=True)
        node.give(1)
        medium.notify_backlog()
        sim.run()
        rec = records[0]
        assert rec.airtime_us - rec.tx_time_us >= T_DIFS_US

    def test_both_contenders_eventually_served(self, setup):
        sim, medium, records = setup
        a, b = FakeNode(station=0), FakeNode(station=1)
        medium.attach(a, a.hw, is_ap=True)
        medium.attach(b, b.hw, is_ap=False)
        a.give(10)
        b.give(10)
        medium.notify_backlog()
        sim.run()
        stations = {r.station for r in records}
        assert stations == {0, 1}

    def test_notify_while_busy_is_deferred(self, setup):
        sim, medium, records = setup
        node = FakeNode()
        medium.attach(node, node.hw, is_ap=True)
        node.give(1)
        medium.notify_backlog()
        medium.notify_backlog()  # duplicate notifications are harmless
        sim.run()
        assert len(records) == 1

    def test_evaporated_backlog_releases_channel(self, setup):
        sim, medium, records = setup
        node = FakeNode()
        medium.attach(node, node.hw, is_ap=True)
        node.give(1)
        medium.notify_backlog()
        # The frame leaves the queue between the draw (t=0) and the grant
        # (DIFS later), as a churn flush would take it.
        sim.schedule(1.0, lambda: node.hw.flush_station(node.station))
        sim.run()
        assert records == []
        assert medium._busy is False and medium._inflight == []


class TestVoPriority:
    def test_vo_wins_contention_overwhelmingly(self, sim):
        medium = Medium(sim, random.Random(3))
        records = []
        medium.add_observer(records.append)
        vo = FakeNode(station=0, ac=AccessCategory.VO)
        be = FakeNode(station=1, ac=AccessCategory.BE)
        medium.attach(vo, vo.hw, is_ap=False)
        medium.attach(be, be.hw, is_ap=False)
        vo.give(50)
        be.give(50)
        medium.notify_backlog()
        sim.run()
        first_half = records[:50]
        vo_wins = sum(1 for r in first_half if r.ac is AccessCategory.VO)
        # CWmin 3 vs 15: VO should win the large majority of rounds.
        assert vo_wins > 35


class TestErrorModel:
    def test_error_rate_produces_failures(self, sim):
        medium = Medium(sim, random.Random(5), error_rate=0.5)
        node = FakeNode()
        medium.attach(node, node.hw, is_ap=True)
        node.give(100)
        medium.notify_backlog()
        sim.run()
        failures = sum(1 for _, ok in node.completions if not ok)
        assert 20 < failures < 80

    def test_zero_error_rate_never_fails(self, setup):
        sim, medium, records = setup
        node = FakeNode()
        medium.attach(node, node.hw, is_ap=True)
        node.give(20)
        medium.notify_backlog()
        sim.run()
        assert all(ok for _, ok in node.completions)

    def test_invalid_error_rate(self, sim):
        with pytest.raises(ValueError):
            Medium(sim, random.Random(1), error_rate=1.0)


class TestAccounting:
    def test_record_fields(self, setup):
        sim, medium, records = setup
        node = FakeNode(station=7)
        medium.attach(node, node.hw, is_ap=True)
        node.give(1, packets=4)
        medium.notify_backlog()
        sim.run()
        rec = records[0]
        assert rec.station == 7
        assert rec.downlink is True
        assert rec.n_packets == 4
        assert rec.payload_bytes == 6000
        assert rec.success

    def test_busy_time_accumulates(self, setup):
        sim, medium, records = setup
        node = FakeNode()
        medium.attach(node, node.hw, is_ap=True)
        node.give(5)
        medium.notify_backlog()
        sim.run()
        assert medium.busy_time_us == pytest.approx(
            sum(r.airtime_us for r in records)
        )

    def test_uplink_marked_not_downlink(self, setup):
        sim, medium, records = setup
        node = FakeNode(station=3)
        medium.attach(node, node.hw, is_ap=False)
        node.give(1)
        medium.notify_backlog()
        sim.run()
        assert records[0].downlink is False


class TestBackoffDraw:
    def test_every_window_draws_what_randint_draws(self, sim):
        """``_arbitrate`` draws ``rng._randbelow(cw + 1)`` in place of
        ``rng.randint(0, cw)``: on one seeded stream the two agree for
        every window the medium uses — VO, BE and each BEB step to CWmax
        — draw for draw, with the tiebreak ``random()`` interleaved."""
        medium = Medium(sim, random.Random(1), collisions=True)
        node = FakeNode()
        windows = [CW_MIN_VO, CW_MIN]
        while windows[-1] < CW_MAX:
            medium._beb_on_collision(node, AccessCategory.BE)
            windows.append(medium._cw_for(node, AccessCategory.BE))
        assert windows == [3, 15, 31, 63, 127, 255, 511, 1023]
        assert (medium_mod._VO_DRAW_BOUND, medium_mod._DRAW_BOUND) == \
            (CW_MIN_VO + 1, CW_MIN + 1)
        for seed, cw in enumerate(windows):
            ours, reference = random.Random(seed), random.Random(seed)
            draws = [(ours._randbelow(cw + 1), ours.random())
                     for _ in range(20_000)]
            assert draws == [(reference.randint(0, cw), reference.random())
                             for _ in range(20_000)]
            assert {slots for slots, _ in draws} == set(range(cw + 1))
