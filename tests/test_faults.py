"""Fault injection: schedules, loss chains, churn, and invariant watchdogs."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.experiments.workloads import saturating_udp_download
from repro.faults import (
    BurstLoss,
    Churn,
    FaultSchedule,
    GilbertElliott,
    Interference,
    InvariantViolation,
    RateCrash,
    audit_conservation,
)
from repro.mac.ap import ALL_SCHEMES, Scheme
from repro.sim.engine import SimulationError, Simulator
from repro.topology import (
    CampusOptions,
    CampusTestbed,
    RoamEvent,
    campus_topology,
)


def _testbed(scheme=Scheme.FQ_CODEL, seed=1, **options) -> Testbed:
    return Testbed(
        three_station_rates(),
        TestbedOptions(scheme=scheme, seed=seed, **options),
    )


# ----------------------------------------------------------------------
# FaultSchedule: validation and JSON loading
# ----------------------------------------------------------------------
class TestSchedule:
    def test_empty(self):
        assert FaultSchedule().empty
        assert not FaultSchedule(
            interference=(Interference(1.0, 2.0),)
        ).empty

    def test_window_validation(self):
        with pytest.raises(ValueError):
            Interference(start_s=-1.0, end_s=2.0)
        with pytest.raises(ValueError):
            Interference(start_s=2.0, end_s=2.0)
        with pytest.raises(ValueError):
            BurstLoss(station=0, start_s=1.0, end_s=2.0, bad_error=1.0)
        with pytest.raises(ValueError):
            RateCrash(station=0, start_s=1.0, end_s=2.0, max_reliable_mcs=99)
        with pytest.raises(ValueError):
            Churn(station=0, detach_s=2.0, reattach_s=1.0)
        with pytest.raises(ValueError):
            Churn(station=0, detach_s=1.0, mode="vanish")

    def test_from_dict_roundtrip(self):
        schedule = FaultSchedule.from_dict({
            "burst_loss": [{"station": 2, "start_s": 1.0, "end_s": 3.0}],
            "churn": [{"station": 1, "detach_s": 2.0}],
        })
        assert schedule.burst_loss == (
            BurstLoss(station=2, start_s=1.0, end_s=3.0),
        )
        assert schedule.churn == (Churn(station=1, detach_s=2.0),)
        assert schedule.interference == ()

    def test_from_dict_rejects_unknown_type_and_field(self):
        with pytest.raises(ValueError, match="unknown fault types"):
            FaultSchedule.from_dict({"meteor_strike": []})
        with pytest.raises(ValueError, match="unknown churn fields"):
            FaultSchedule.from_dict(
                {"churn": [{"station": 1, "detach_s": 2.0, "angle": 3}]}
            )

    def test_from_json(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(
            '{"interference": [{"start_s": 1.0, "end_s": 2.0,'
            ' "error_prob": 0.4}]}'
        )
        schedule = FaultSchedule.from_json(path)
        assert schedule.interference[0].error_prob == 0.4

    def test_schedule_changes_spec_digest(self):
        """Cache-key hygiene: impaired specs never collide with clean ones."""
        from repro.experiments import airtime_udp

        clean = airtime_udp.specs((Scheme.FIFO,), duration_s=1.0,
                                  warmup_s=0.5)[0]
        schedule = FaultSchedule(interference=(Interference(0.6, 0.9),))
        impaired = airtime_udp.specs((Scheme.FIFO,), duration_s=1.0,
                                     warmup_s=0.5, faults=schedule)[0]
        other = airtime_udp.specs(
            (Scheme.FIFO,), duration_s=1.0, warmup_s=0.5,
            faults=FaultSchedule(interference=(Interference(0.6, 0.8),)),
        )[0]
        assert clean.digest() != impaired.digest()
        assert impaired.digest() != other.digest()


# ----------------------------------------------------------------------
# Gilbert–Elliott chain
# ----------------------------------------------------------------------
class TestGilbertElliott:
    def test_starts_good_and_visits_both_states(self):
        chain = GilbertElliott(random.Random(1), 0.05, 0.9, 100.0, 100.0)
        assert chain.error_prob(0.0) == 0.05
        seen = {chain.error_prob(float(t)) for t in range(0, 100_000, 50)}
        assert seen == {0.05, 0.9}
        assert chain.bursts > 10

    def test_same_seed_same_trajectory(self):
        def trajectory():
            chain = GilbertElliott(random.Random(7), 0.0, 0.8, 1000.0, 200.0)
            return [chain.error_prob(i * 37.0) for i in range(400)], chain.bursts

        probs_a, bursts_a = trajectory()
        probs_b, bursts_b = trajectory()
        assert probs_a == probs_b
        assert bursts_a == bursts_b > 0

    def test_unqueried_chain_consumes_one_draw_only(self):
        """Lazy advancement: queries at time 0 never burn extra entropy."""
        rng = random.Random(3)
        GilbertElliott(rng, 0.0, 0.8, 100.0, 100.0)
        after_init = rng.getstate()
        rng2 = random.Random(3)
        chain = GilbertElliott(rng2, 0.0, 0.8, 100.0, 100.0)
        chain.error_prob(0.0)
        assert rng2.getstate() == after_init


# ----------------------------------------------------------------------
# Engine stall guard (zero-delay livelock)
# ----------------------------------------------------------------------
class TestStallGuard:
    def test_catches_zero_delay_loop(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.0, loop)

        sim.schedule(0.0, loop)
        sim.set_stall_guard(500)
        with pytest.raises(SimulationError, match="stall"):
            sim.run(10.0)

    def test_disarmed_by_default_and_validates(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.set_stall_guard(0)
        sim.set_stall_guard(10)
        sim.set_stall_guard(None)  # disarm again

    def test_normal_run_passes_under_guard(self):
        testbed = _testbed(strict=True)
        saturating_udp_download(testbed)
        testbed.run(0.3, 0.1)  # strict mode arms the guard
        assert testbed.conservation is not None and testbed.conservation.ok


# ----------------------------------------------------------------------
# Station churn (AP-level)
# ----------------------------------------------------------------------
class TestChurn:
    def test_detach_validates_inputs(self):
        testbed = _testbed()
        with pytest.raises(ValueError, match="mode"):
            testbed.ap.detach_station(0, mode="vanish")
        with pytest.raises(ValueError, match="no such station"):
            testbed.ap.detach_station(99)

    def test_detach_is_idempotent_and_reversible(self):
        testbed = _testbed()
        testbed.ap.detach_station(0)
        assert testbed.ap.station_detached(0)
        assert testbed.ap.detach_station(0) == 0
        testbed.ap.reattach_station(0)
        assert not testbed.ap.station_detached(0)
        testbed.ap.reattach_station(0)  # no-op on attached stations

    def test_flush_churn_conserves_and_drops_through_funnel(self):
        faults = FaultSchedule(churn=(
            Churn(station=2, detach_s=0.3, reattach_s=0.6, mode="flush"),
        ))
        testbed = _testbed(scheme=Scheme.FIFO, seed=2,
                           faults=faults, strict=True)
        saturating_udp_download(testbed)
        testbed.run(0.9)
        assert testbed.conservation.ok
        summary = testbed.fault_injector.summary()
        assert summary["detaches"] == 1
        assert summary["reattaches"] == 1
        # Everything dropped at detach went through the funnel, reason
        # "detach" (arrivals while detached land there too).
        mac_detach = testbed.ap.drops.counts.get("mac", {}).get("detach", 0)
        assert mac_detach > 0
        # The station came back and received traffic again.
        assert testbed.stations[2].rx_packets > 0

    def test_park_churn_keeps_packets_resident(self):
        faults = FaultSchedule(churn=(
            Churn(station=2, detach_s=0.3, mode="park"),
        ))
        testbed = _testbed(scheme=Scheme.AIRTIME, seed=2, faults=faults)
        saturating_udp_download(testbed)
        testbed.run(0.6)
        report = audit_conservation(testbed)
        assert report.ok
        assert testbed.fault_injector.summary()["flushed_packets"] == 0
        # Parked (not flushed): the backlog is still resident at teardown.
        assert report.resident > 0
        assert testbed.ap.station_detached(2)

    def test_scheduler_state_cleared_on_detach(self):
        """A re-attached station starts from a fresh scheduling deficit."""
        testbed = _testbed(scheme=Scheme.AIRTIME)
        saturating_udp_download(testbed)
        testbed.sim.schedule(testbed.sim.sec(0.2),
                             lambda: testbed.ap.detach_station(1))
        testbed.sim.schedule(testbed.sim.sec(0.4),
                             lambda: testbed.ap.reattach_station(1))
        testbed.run(0.6)
        report = audit_conservation(testbed)
        assert report.ok
        assert testbed.stations[1].rx_packets > 0


class TestNoLockOut:
    """A station that left must not take the shared driver buffer with
    it.  Its residue in the qdisc used to drain into the 32 frames, where
    nothing is scheduled for a detached station and nothing leaves: every
    other station under FIFO / FQ-CoDel froze until it came back, and
    after a roam for good.  Conservation balances throughout (the frames
    are resident), so only delivery and the stall detector can tell."""

    @pytest.mark.parametrize("scheme", (Scheme.FIFO, Scheme.FQ_CODEL),
                             ids=lambda scheme: scheme.name)
    def test_flush_detach_leaves_the_others_running(self, scheme):
        testbed = _testbed(scheme=scheme, strict=True)
        saturating_udp_download(testbed)
        sim, rx = testbed.sim, {}
        sim.schedule(sim.sec(1.0), lambda: testbed.ap.detach_station(2))
        sim.schedule(sim.sec(1.5), lambda: rx.update(
            (i, testbed.stations[i].rx_packets) for i in (0, 1)))
        testbed.run(3.2)  # strict: a silent medium raises at t = 3 s
        assert testbed.conservation.ok
        for index, at_1_5_s in rx.items():
            assert testbed.stations[index].rx_packets > at_1_5_s + 1000
        assert testbed.ap.stack.occupancy_by_station().get(2, 0) == 0

    def test_roam_away_leaves_the_old_cell_running(self):
        topology = campus_topology(
            n_bss=2, n_channels=1, stations_per_bss=2,
            roam=(RoamEvent(station=0, at_s=0.5, to_bss=1),))
        campus = CampusTestbed(topology, CampusOptions(
            scheme=Scheme.FIFO, seed=1, strict=True))
        saturating_udp_download(campus)
        sim, rx = campus.sim, []
        sim.schedule(sim.sec(1.0),
                     lambda: rx.append(campus.stations[1].rx_packets))
        campus.run(2.0)
        # Station 1 stayed behind in cell 0 and is still being served.
        assert campus.stations[1].rx_packets > rx[0] + 200
        assert campus.bss[0].ap.stack.occupancy_by_station().get(0, 0) == 0


# ----------------------------------------------------------------------
# Invariant watchdogs
# ----------------------------------------------------------------------
class TestWatchdogs:
    def test_strict_catches_injected_conservation_violation(self):
        testbed = _testbed(scheme=Scheme.FIFO, strict=True)
        saturating_udp_download(testbed)
        # Deliberately cook the books: claim five packets that were never
        # enqueued, so the teardown audit must come up short.
        testbed.ap.downlink_enqueued += 5
        with pytest.raises(InvariantViolation, match="balance=5"):
            testbed.run(0.3, 0.1)

    def test_non_strict_records_violation_without_raising(self):
        testbed = _testbed(scheme=Scheme.FIFO, strict=False, faults=(
            FaultSchedule(interference=(Interference(0.1, 0.2),))
        ))
        saturating_udp_download(testbed)
        testbed.ap.downlink_enqueued += 5
        testbed.run(0.3, 0.1)  # does not raise
        assert testbed.conservation is not None
        assert not testbed.conservation.ok
        assert testbed.conservation.balance == 5

    def test_stall_detector_trips_on_parked_backlog(self):
        # Traffic only to the slow station (offered 4x its rate, so it
        # backlogs), which parks mid-run: the backlog stays resident
        # while the medium goes permanently idle.
        faults = FaultSchedule(churn=(
            Churn(station=2, detach_s=0.2, mode="park"),
        ))
        testbed = _testbed(scheme=Scheme.FQ_CODEL, faults=faults, strict=True)
        saturating_udp_download(testbed, stations=[2])
        with pytest.raises(InvariantViolation, match="stall"):
            testbed.run(4.0)

    def test_retry_drops_not_double_counted(self):
        """Regression: exhausted-retry drops must be reported exactly once.

        An earlier design kept a separate ``retry_drop_packets`` counter
        next to the drop funnel; the property is now derived from the
        funnel, and a sustained-interference run that forces retry
        exhaustion must still balance exactly.
        """
        faults = FaultSchedule(interference=(
            Interference(start_s=0.0, end_s=10.0, error_prob=0.9),
        ))
        testbed = _testbed(scheme=Scheme.FIFO, seed=3,
                           faults=faults, strict=True)
        saturating_udp_download(testbed)
        testbed.run(0.5, 0.1)
        hw_retry = testbed.ap.drops.counts.get("hw", {}).get("retry", 0)
        assert hw_retry > 0
        assert testbed.ap.retry_drop_packets == hw_retry
        assert testbed.conservation.ok


# ----------------------------------------------------------------------
# Conservation property: every scheme, lossy channel, real retries
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(
    scheme=st.sampled_from(ALL_SCHEMES),
    seed=st.integers(min_value=0, max_value=2**16),
    churn_mode=st.sampled_from(["flush", "park"]),
)
def test_conservation_holds_under_any_impairment(scheme, seed, churn_mode):
    """enqueued == delivered + dropped + resident, exactly, always."""
    faults = FaultSchedule(
        burst_loss=(BurstLoss(station=2, start_s=0.05, end_s=0.35,
                              mean_good_s=0.05, mean_bad_s=0.02),),
        interference=(Interference(start_s=0.15, end_s=0.25),),
        rate_crash=(RateCrash(station=0, start_s=0.1, end_s=0.3,
                              max_reliable_mcs=1),),
        churn=(Churn(station=1, detach_s=0.2, reattach_s=0.3,
                     mode=churn_mode),),
    )
    testbed = Testbed(
        three_station_rates(),
        TestbedOptions(scheme=scheme, seed=seed, error_rate=0.05,
                       faults=faults, strict=True),
    )
    saturating_udp_download(testbed)
    testbed.run(0.4)
    report = testbed.conservation
    assert report is not None and report.ok, report.describe()
    # The run actually exercised the retry path on the lossy channel.
    assert report.dropped + report.delivered > 0
