"""The scheme seam: a scheme is a ``SCHEMES`` row, and the AP holds
its invariants under churn whichever row it was built from.

Two things live here.  A fifth scheme assembled, in this file only, out
of parts no shipped scheme combines; and a Hypothesis state machine
over one access point — arrivals both ways, clock, churn and roaming
with frames in flight — run against the four shipped rows and the fifth.
"""

from __future__ import annotations

from itertools import chain

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.airtime import AirtimeScheduler
from repro.core.mac_fq import IntegratedStack, MacFqStructure
from repro.core.packet import AccessCategory, Packet
from repro.experiments import workloads
from repro.experiments.config import three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.faults import count_conservation
from repro.mac.ap import ALL_SCHEMES, SCHEMES, SchemeDescriptor, airtime_drr
from repro.mac.driver import QdiscStack
from repro.qdisc.fq_codel_qdisc import FqCodelQdisc
from repro.telemetry import TelemetryConfig

# ----------------------------------------------------------------------
# The fifth scheme: the fq_codel qdisc over the legacy driver, served by
# the airtime scheduler.  Nothing under src/ knows this row exists.
# ----------------------------------------------------------------------
FIFTH = "fq_codel+airtime"
FIFTH_ROW = SchemeDescriptor(QdiscStack.fq_codel, airtime_drr,
                             airtime_fair=True)


@pytest.fixture
def fifth(monkeypatch):
    monkeypatch.setitem(SCHEMES, FIFTH, FIFTH_ROW)
    return FIFTH


def test_fifth_scheme_runs_conserved_and_audited(fifth):
    testbed = Testbed(three_station_rates(), TestbedOptions(
        scheme=fifth, seed=1, telemetry=TelemetryConfig(ledger=True)))
    workloads.saturating_udp_download(testbed)
    testbed.run(2.0, 1.0)

    ap = testbed.ap
    assert type(ap.stack) is QdiscStack
    assert type(ap.stack.qdisc) is FqCodelQdisc
    assert type(ap.scheduler) is AirtimeScheduler
    assert count_conservation([ap], testbed.stations.values(),
                              [testbed.medium]).ok
    # The audit ran against the row's ``airtime_fair``: equal shares.
    audit = testbed.telemetry.ledger_audit
    assert audit.model_checked
    assert [row["model_share"] for row in audit.rows] == \
        [pytest.approx(1 / 3)] * 3
    # ... which this scheme does not deliver, and that is the paper's
    # point (Section 3): the slow station still owns the driver buffer,
    # so the airtime scheduler has nothing to schedule for the fast
    # ones.  Measured on this tree, seeds 1 and 2: 0.793 of the
    # airtime, between FQ-CoDel's 0.849 and Airtime's 0.329.
    slow = audit.rows[2]
    assert slow["station"] == 2
    assert slow["measured_share"] == pytest.approx(0.793, abs=0.02)
    assert not audit.ok


# ----------------------------------------------------------------------
# One access point under arrivals, clock, churn and roaming
# ----------------------------------------------------------------------
STATIONS = (0, 1, 2)


def _recount(structure: MacFqStructure) -> int:
    return sum(len(queue.pkts) for tid in structure.tids()
               for queue in chain(tid.new_queues, tid.old_queues))


def recount(stack) -> int:
    """``stack.resident()`` again, from the containers themselves."""
    if isinstance(stack, IntegratedStack):
        return _recount(stack)
    qdisc = stack.qdisc
    above = (_recount(qdisc._fq) if isinstance(qdisc, FqCodelQdisc)
             else len(qdisc._pkts))
    return (above + sum(len(queue) for queue in stack._queues.values())
            + sum(len(queue) for queue in stack._vo.values()))


class AccessPointMachine(RuleBasedStateMachine):
    """Subclasses set ``scheme``; ``FIFTH`` is registered per example."""

    scheme = None

    def __init__(self) -> None:
        super().__init__()
        if self.scheme == FIFTH:
            SCHEMES[FIFTH] = FIFTH_ROW
        self.testbed = Testbed(three_station_rates(),
                               TestbedOptions(scheme=self.scheme, seed=1))
        self.ap = self.testbed.ap
        self.sim = self.testbed.sim
        #: Every station object, including those roamed away: what they
        #: received still counts as delivered.
        self.nodes = dict(self.testbed.stations)
        self.seq = 0

    def teardown(self) -> None:
        if self.scheme == FIFTH:
            del SCHEMES[FIFTH]

    # -- rules -----------------------------------------------------------
    @rule(station=st.sampled_from(STATIONS),
          ac=st.sampled_from((AccessCategory.BE, AccessCategory.VO,
                              AccessCategory.VI)),
          count=st.integers(1, 80))
    def enqueue(self, station, ac, count):
        if station not in self.ap.stations:
            return  # roamed away: the wire would not route here
        for _ in range(count):
            self.seq += 1
            self.ap.send_downstream(Packet(
                1 + station, 1500, dst_station=station, seq=self.seq, ac=ac,
                created_us=self.sim.now))

    @rule(station=st.sampled_from(STATIONS),
          ac=st.sampled_from((AccessCategory.BE, AccessCategory.VO)),
          count=st.integers(1, 40))
    def uplink(self, station, ac, count):
        """The station's own queues and hardware queue contend too."""
        if station not in self.ap.stations:
            return
        node = self.nodes[station]
        for _ in range(count):
            self.seq += 1
            node.send(Packet(100 + station, 1500, seq=self.seq, ac=ac))

    @rule(dt_us=st.sampled_from((50.0, 500.0, 5_000.0, 50_000.0)))
    def advance(self, dt_us):
        """Let TXOPs start and complete (or stop mid-flight)."""
        self.sim.run(until_us=self.sim.now + dt_us)

    @rule(station=st.sampled_from(STATIONS),
          mode=st.sampled_from(("flush", "park")))
    def detach(self, station, mode):
        if station in self.ap.stations:
            self.ap.detach_station(station, mode)

    @rule(station=st.sampled_from(STATIONS))
    def reattach(self, station):
        if station in self.ap.stations:
            self.ap.reattach_station(station)

    @rule(station=st.sampled_from(STATIONS))
    def remove(self, station):
        if station in self.ap.stations:
            self.ap.remove_station(station)

    @precondition(lambda self: len(self.ap.stations) < len(STATIONS))
    @rule(station=st.sampled_from(STATIONS))
    def re_add(self, station):
        if station not in self.ap.stations:
            self.ap.add_station(self.nodes[station])
            self.nodes[station].set_detached(False)

    # -- invariants -------------------------------------------------------
    @invariant()
    def packets_are_conserved(self):
        report = count_conservation([self.ap], self.nodes.values(),
                                    [self.testbed.medium])
        assert report.balance == 0, report.describe()

    @invariant()
    def nobody_backlogged_is_forgotten(self):
        ap = self.ap
        in_hw = {agg.station for queue in ap._hw._queues.values()
                 for agg in queue}
        for station in ap.stations:
            if station in ap._detached or not ap._station_has_backlog(station):
                continue
            assert (station in ap.scheduler.listed or station in ap._parked
                    or station in in_hw), station

    @invariant()
    def every_backlogged_contender_is_ready(self):
        """The medium polls only its ready set (DESIGN.md §11, invariant
        7): whoever has frames must be in it, and only attached
        contenders may be."""
        medium = self.testbed.medium
        ready = medium._ready
        assert len({id(slot) for slot in ready}) == len(ready)
        assert all(slot.ready for slot in ready)
        assert {id(slot) for slot in ready} <= {
            id(slot) for slot in medium._contenders}
        for slot in medium._contenders:
            if not slot.detached and slot.hw.has_pending():
                assert any(r is slot for r in ready), slot.contender

    @invariant()
    def resident_matches_the_containers(self):
        stack = self.ap.stack
        assert stack.resident() == recount(stack)
        if isinstance(stack, QdiscStack):
            assert stack.hungry == (stack.backlog < stack.limit)


#: name -> machine class, one per ``SCHEMES`` row plus the fifth.
MACHINES = {
    name: type(f"AccessPointMachine_{name}", (AccessPointMachine,),
               {"scheme": scheme})
    for name, scheme in {**{scheme.name: scheme for scheme in ALL_SCHEMES},
                         "FIFTH": FIFTH}.items()
}

for _name, _machine in MACHINES.items():
    _case = _machine.TestCase
    _case.settings = settings(max_examples=40, stateful_step_count=30,
                              deadline=None)
    globals()[f"TestMachine_{_name}"] = _case


# Findings, replayed step by step (what Hypothesis printed, kept as the
# regression): each failed an invariant on the tree it was found on.
@pytest.mark.parametrize("name", ["FIFO", "FQ_CODEL", "FIFTH"])
def test_finding_roam_back_does_not_forget_qdisc_residue(name):
    """Found by the machine on the parent of the lock-out fix.  Station 1
    roams away with packets still in the shared qdisc; an arrival for
    station 0 pulls that residue into the driver; station 1 roams back
    — attached, backlogged in the driver, and on no scheduler list,
    because ``add_station`` wakes nobody.  Residue pulled for a station
    that is gone is now dropped, so there is nothing to forget."""
    state = MACHINES[name]()
    state.enqueue(station=1, ac=AccessCategory.BE, count=35)
    state.remove(station=1)
    state.enqueue(station=0, ac=AccessCategory.BE, count=1)
    state.re_add(station=1)
    state.nobody_backlogged_is_forgotten()
    state.packets_are_conserved()
    state.resident_matches_the_containers()
    state.teardown()


def test_finding_uplink_frame_lands_after_its_station_left():
    """Found by the machine once it could send uplink.  Station 1's
    frame is on the air when ``remove_station`` takes it out of the BSS;
    the completion reached a station with no AP and no medium and
    tripped its asserts.  Nobody is listening any more: the packet is an
    uplink drop, and the channel carries on."""
    state = MACHINES["AIRTIME"]()
    state.uplink(station=1, ac=AccessCategory.BE, count=1)
    state.advance(dt_us=50.0)
    state.remove(station=1)
    state.advance(dt_us=500.0)
    node = state.nodes[1]
    assert (node.tx_packets, node.uplink_drops) == (0, 1)
    state.every_backlogged_contender_is_ready()
    state.packets_are_conserved()
    state.teardown()
