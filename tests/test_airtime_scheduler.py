"""Tests for the airtime fairness scheduler (Algorithm 3)."""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.airtime import AirtimeScheduler
from repro.core.station_rr import RoundRobinScheduler
from repro.mac.hwqueue import HW_QUEUE_DEPTH
from repro.validation import catalogue


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


def backlogged_airtime(h: Harness, charges: Dict[int, Sequence[float]],
                       steps: int) -> Iterator[Dict[int, float]]:
    """Every station continuously backlogged: fill the hardware queue,
    complete its head, charge that station after the transmission
    (cycling through its charge sizes), and yield each station's
    cumulative airtime after every completion."""
    airtime = {station: 0.0 for station in charges}
    served = {station: 0 for station in charges}
    for station in charges:
        h.give_backlog(station, steps + h.hw_depth)
    for _ in range(steps):
        h.scheduler.schedule()
        station = h.hw.pop(0)
        sizes = charges[station]
        charge = sizes[served[station] % len(sizes)]
        served[station] += 1
        airtime[station] += charge
        h.scheduler.report_tx_airtime(station, charge)
        yield airtime


def worst_excess(h: Harness, charges: Dict[int, Sequence[float]],
                 quantum_us: float, steps: int = 200) -> float:
    """The largest ``|A_i - A_j| - (quantum_us + hw_depth * c_max)`` over
    every prefix and pair (positive: the bound broke)."""
    worst = float("-inf")
    for airtime in backlogged_airtime(h, charges, steps):
        for i in charges:
            for j in charges:
                c_max = max(*charges[i], *charges[j])
                bound = quantum_us + h.hw_depth * c_max
                worst = max(worst, abs(airtime[i] - airtime[j]) - bound)
    return worst


class TestFairnessBound:
    r"""Algorithm 3 keeps continuously backlogged stations within a
    deficit-round-robin bound (Shreedhar & Varghese, SIGCOMM '95).

    DRR bounds the service gap between two backlogged flows by a quantum
    plus one maximum packet.  Here the deficit is charged *after* the
    transmission, so up to ``d = hw_depth`` aggregates are in flight
    before a charge can end a station's turn.  Derivation, with
    ``Q = quantum_us``, ``c`` the largest single charge of the pair,
    ``A_i`` station i's charged airtime and ``D_i`` its deficit:

    1. *Rotation.*  Backlogged stations never leave the lists, so the
       scheduler visits them in a fixed cyclic order (the new list is
       the first lap): a visit builds while ``D_i > 0`` and ends, once
       a charge has left ``D_i <= 0``, with ``D_i += Q`` and a move to
       the tail.  With ``K_i`` finished visits, the credit
       granted is ``Q (1 + K_i)`` (the wake grants the first ``Q``), so
       ``A_i = Q K_i + P_i`` with ``P_i = Q - D_i``, and
       ``|K_i - K_j| <= 1``.
    2. *Ceiling.*  ``D_i`` starts at ``Q``, charges only lower it and a
       top-up needs ``D_i <= 0``: ``D_i <= Q``, so ``P_i >= 0``.
    3. *Floor.*  Let ``X_i = D_i -`` (i's charges still in flight).  A
       charge leaves ``X_i`` unchanged; a build needs ``D_i > 0`` with at
       most ``d`` of i's aggregates in flight, so it leaves
       ``X_i > -d c``; a top-up raises it.  Hence ``D_i >= X_i > -d c``
       and ``P_i < Q + d c``.
    4. *Equal laps* (``K_i = K_j``): ``|A_i - A_j| = |P_i - P_j|
       < Q + d c`` by 2 and 3.
    5. *One lap ahead* (``K_i = K_j + 1``): i finished its lap and cannot
       start the next before j finishes this one, so it builds nothing;
       its top-up left ``X_i > Q - d c``, so ``D_i >= X_i`` gives
       ``P_i < d c`` and ``A_i - A_j = Q + P_i - P_j < Q + d c``.

    So ``|A_i - A_j| < Q + d c`` over every prefix: the quantum, the
    ``d - 1`` aggregates still in flight when a charge ends a turn, and
    that charge itself.  Round robin gives each station one aggregate per
    turn whatever it costs, so on mixed charge sizes the gap grows with
    every round and no such bound holds.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(
            st.lists(st.integers(1, 8000).map(float), min_size=1,
                     max_size=3),
            min_size=2, max_size=4,
        ),
        hw_depth=st.sampled_from([1, 2]),
        quantum_us=st.integers(50, 4000).map(float),
    )
    def test_backlogged_service_gap_stays_within_the_bound(
            self, sizes, hw_depth, quantum_us):
        h = Harness(hw_depth=hw_depth, quantum_us=quantum_us)
        charges = dict(enumerate(sizes))
        assert worst_excess(h, charges, quantum_us) < 0

    def test_round_robin_breaks_the_bound_on_mixed_charges(self):
        """The same drive separates the schemes: a slow station's
        3000 µs turns against a fast one's 100 µs."""
        charges = {0: [100.0], 1: [3000.0]}
        airtime = Harness(hw_depth=2, quantum_us=1000.0)
        assert worst_excess(airtime, charges, 1000.0) < 0
        rr = Harness(hw_depth=2)
        rr.scheduler = RoundRobinScheduler(
            has_backlog=lambda s: rr.backlogs.get(s, 0) > 0,
            build_aggregate=rr._build,
            hw_full=lambda: len(rr.hw) >= rr.hw_depth,
        )
        assert worst_excess(rr, charges, 1000.0) > 0


def traced_charges(name: str):
    """The scheduler's ``deficit_charge`` records of catalogue entry
    ``name``, its quantum, and each station's largest tx charge."""
    testbed = catalogue.run_traced(name)
    records = [r for r in testbed.telemetry.trace.records
               if r["cat"] == "sched" and r["ev"] == "deficit_charge"]
    largest: Dict[int, float] = {}
    for r in records:
        if r["dir"] == "tx":
            largest[r["station"]] = max(largest.get(r["station"], 0.0),
                                        r["us"])
    return records, testbed.ap.scheduler.quantum_us, largest


class TestFairnessBoundOnCatalogueTraces:
    """Steps 2-3 of :class:`TestFairnessBound` on the access point's own
    charges: after every tx charge, ``-d c_i < D_i <= Q``.

    At the AP, ``d`` is ``HW_QUEUE_DEPTH + 1``, not ``HW_QUEUE_DEPTH``:
    the medium pops an aggregate off the hardware queue when it starts
    transmitting, so the scheduler can refill the queue while that
    aggregate is still uncharged.  On ``udp/AIRTIME`` the slow station
    (``c_i`` 3,544 µs) reaches -9,459 µs, below ``-2 c_i`` = -7,087 µs
    and above ``-3 c_i``.

    On ``tcp/AIRTIME`` the floor does not hold.  Charges for frames the
    AP *receives* (TCP ACKs and uploads) lower ``D_i`` with no build, so
    step 3's ``X_i`` has no lower bound: station 1 (``c_i`` 1,854 µs)
    reads -15,861 µs after a tx charge, below ``-3 c_i`` = -5,561 µs.
    The ceiling still holds, since every charge only lowers ``D_i``.
    """

    IN_FLIGHT = HW_QUEUE_DEPTH + 1

    def test_udp_deficits_stay_within_the_derived_band(self):
        records, quantum_us, largest = traced_charges("udp/AIRTIME")
        tx = [r for r in records if r["dir"] == "tx"]
        assert len(tx) > 300 and len(largest) == 3
        for r in tx:
            floor = -self.IN_FLIGHT * largest[r["station"]]
            assert floor < r["deficit"] <= quantum_us, r
        # The aggregate on the air is needed: HW_QUEUE_DEPTH alone breaks.
        assert any(r["deficit"] <= -HW_QUEUE_DEPTH * largest[r["station"]]
                   for r in tx)

    def test_rx_charges_take_tcp_below_the_floor(self):
        records, quantum_us, largest = traced_charges("tcp/AIRTIME")
        tx = [r for r in records if r["dir"] == "tx"]
        assert any(r["dir"] == "rx" for r in records)
        assert all(r["deficit"] <= quantum_us for r in records)
        below = [r for r in tx
                 if r["deficit"] <= -self.IN_FLIGHT * largest[r["station"]]]
        assert below, "the floor held under rx charges"


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


class TestTraceBinding:
    def test_records_are_stamped_by_the_given_clock(self):
        from repro.telemetry import TraceBus

        bus = TraceBus()
        h = Harness(trace=bus, clock=lambda: 1.0)
        h.scheduler.wake(1)
        h.scheduler.report_tx_airtime(1, 100.0)
        h.scheduler.report_rx_airtime(1, 50.0)
        h.scheduler.drop(1)
        assert [(r["t"], r["ev"], r.get("dir")) for r in bus.records] == [
            (1.0, "station_enter", None), (1.0, "deficit_charge", "tx"),
            (1.0, "deficit_charge", "rx"), (1.0, "station_drop", None),
        ]
