"""Tests for the multi-BSS topology layer.

Covers the declarative :class:`Topology` spec (validation, channel
sharding), per-BSS medium attachment rules, churn/roaming idempotency,
the agreement of the one-cell rates entry with the ``Topology`` entry,
strict watchdogs / fault schedules / conservation counting on multi-cell
testbeds, and the ``bss`` dimension in trace summaries and latency
waterfalls.
"""

from __future__ import annotations

import random

import pytest

from repro.core.packet import Packet
from repro.faults.schedule import Churn
from repro.mac.ap import Scheme
from repro.mac.hwqueue import HardwareQueue
from repro.mac.medium import Medium
from repro.telemetry.config import TelemetryConfig
from repro.topology import (
    BssSpec,
    CampusOptions,
    CampusTestbed,
    RoamEvent,
    Topology,
    campus_topology,
)

from .conftest import make_testbed
from .test_medium import FakeNode


def livelocked_campus() -> None:
    """RunSpec target: a strict 2-BSS run with a livelock planted."""
    from repro.experiments.workloads import saturating_udp_download

    from .conftest import plant_livelock

    campus = CampusTestbed(
        campus_topology(n_bss=2, n_channels=2, stations_per_bss=2),
        CampusOptions(seed=1, strict=True))
    saturating_udp_download(campus)
    plant_livelock(campus)
    campus.run(0.2)


# ----------------------------------------------------------------------
# Topology spec validation + sharding
# ----------------------------------------------------------------------
class TestTopologySpec:
    def test_rejects_duplicate_bss_ids(self):
        with pytest.raises(ValueError, match="duplicate bss ids"):
            Topology(bsses=(
                BssSpec(bss_id=0, mcs_indices=(15,), station_base=0),
                BssSpec(bss_id=0, mcs_indices=(15,), station_base=1),
            ))

    def test_rejects_overlapping_station_indices(self):
        with pytest.raises(ValueError, match="placed in both"):
            Topology(bsses=(
                BssSpec(bss_id=0, mcs_indices=(15, 0), station_base=0),
                BssSpec(bss_id=1, mcs_indices=(15,), station_base=1),
            ))

    def test_rejects_unknown_roam_targets(self):
        bsses = (
            BssSpec(bss_id=0, mcs_indices=(15,), station_base=0),
            BssSpec(bss_id=1, mcs_indices=(15,), station_base=1),
        )
        with pytest.raises(ValueError, match="unknown station"):
            Topology(bsses=bsses,
                     roam=(RoamEvent(station=9, at_s=1.0, to_bss=1),))
        with pytest.raises(ValueError, match="unknown BSS"):
            Topology(bsses=bsses,
                     roam=(RoamEvent(station=0, at_s=1.0, to_bss=7),))
        with pytest.raises(ValueError, match="unknown station"):
            Topology(bsses=bsses, churn=(Churn(station=9, detach_s=1.0),))

    def test_campus_topology_layout(self):
        topo = campus_topology(n_bss=4, n_channels=2, stations_per_bss=3)
        assert [spec.channel for spec in topo.bsses] == [0, 1, 0, 1]
        assert [spec.station_base for spec in topo.bsses] == [0, 3, 6, 9]
        # Fast stations first, the trailing slow one induces the anomaly.
        assert topo.bsses[0].mcs_indices == (15, 15, 0)
        assert topo.n_stations == 12
        assert topo.channels() == (0, 1)
        assert topo.bss_of_station(7) == 2

    def test_channel_shards_split_disjoint_channels(self):
        topo = campus_topology(n_bss=4, n_channels=2, stations_per_bss=2)
        shards = topo.channel_shards()
        assert len(shards) == 2
        assert [s.channels() for s in shards] == [(0,), (1,)]
        assert [spec.bss_id for spec in shards[0].bsses] == [0, 2]
        assert [spec.bss_id for spec in shards[1].bsses] == [1, 3]

    def test_cross_channel_roam_merges_shards(self):
        # Station 0 (bss 0, channel 0) roams to bss 1 (channel 1): the
        # two channels interact and must be simulated jointly.
        topo = campus_topology(
            n_bss=2, n_channels=2, stations_per_bss=2,
            roam=(RoamEvent(station=0, at_s=1.0, to_bss=1),),
        )
        shards = topo.channel_shards()
        assert len(shards) == 1
        assert shards[0].channels() == (0, 1)
        assert len(shards[0].roam) == 1

    def test_shards_keep_their_own_events(self):
        topo = campus_topology(
            n_bss=4, n_channels=2, stations_per_bss=2,
            # Within-channel roam on channel 0 (bss 0 -> bss 2).
            roam=(RoamEvent(station=0, at_s=1.0, to_bss=2),),
            # Churn on a channel-1 station (bss 1 serves stations 2, 3).
            churn=(Churn(station=2, detach_s=1.0, reattach_s=2.0),),
        )
        shards = topo.channel_shards()
        assert len(shards) == 2
        assert shards[0].roam and not shards[0].churn
        assert shards[1].churn and not shards[1].roam


# ----------------------------------------------------------------------
# Medium attach/detach rules (per-BSS AP slots)
# ----------------------------------------------------------------------
class TestMediumAttach:
    def test_second_ap_on_same_bss_rejected(self, sim):
        medium = Medium(sim, random.Random(1))
        medium.attach(FakeNode(), HardwareQueue(), is_ap=True, bss=0)
        with pytest.raises(ValueError, match="BSS 0 already has an AP"):
            medium.attach(FakeNode(), HardwareQueue(), is_ap=True, bss=0)

    def test_second_ap_on_other_bss_allowed(self, sim):
        medium = Medium(sim, random.Random(1))
        medium.attach(FakeNode(), HardwareQueue(), is_ap=True, bss=0)
        medium.attach(FakeNode(), HardwareQueue(), is_ap=True,
                      bss=1)  # co-channel cell

    def test_duplicate_contender_rejected(self, sim):
        medium = Medium(sim, random.Random(1))
        node = FakeNode()
        medium.attach(node, node.hw, is_ap=False)
        with pytest.raises(ValueError, match="already attached"):
            medium.attach(node, node.hw, is_ap=False)

    def test_attach_hands_out_a_readiness_hook_detach_kills_it(self, sim):
        medium = Medium(sim, random.Random(1))
        a, b = FakeNode(station=0), FakeNode(station=1)
        medium.attach(a, a.hw, is_ap=False)
        medium.attach(b, b.hw, is_ap=False)
        # Attached contenders start ready; an arbitration prunes idle ones.
        assert [slot.contender for slot in medium._ready] == [a, b]
        medium._arbitrate()
        assert medium._ready == []
        # The hook is the queue's on_ready: a push marks its contender.
        # Marked out of order, drawn in registration order.
        b.give()
        a.give()
        a.hw.on_ready()  # a second call is free
        medium._arbitrate()
        assert [slot.contender for slot in medium._ready] == [a, b]
        hook_b = b.hw.on_ready
        medium.detach(b)
        hook_b()
        assert [slot.contender for slot in medium._ready] == [a]

    def test_detach_is_idempotent(self, sim):
        medium = Medium(sim, random.Random(1))
        node = FakeNode()
        medium.attach(node, node.hw, is_ap=True)
        assert medium.detach(node) is True
        assert medium.detach(node) is False
        # The AP slot is free again after detach.
        medium.attach(FakeNode(), HardwareQueue(), is_ap=True, bss=0)


# ----------------------------------------------------------------------
# Churn / roaming idempotency on the AP
# ----------------------------------------------------------------------
class TestChurnIdempotency:
    def _loaded_testbed(self, scheme=Scheme.FQ_CODEL):
        from repro.experiments.workloads import saturating_udp_download

        testbed = make_testbed(scheme)
        saturating_udp_download(testbed)
        testbed.sim.run(until_us=testbed.sim.sec(0.1))
        return testbed

    def test_double_detach_returns_zero(self):
        testbed = self._loaded_testbed()
        assert testbed.ap.detach_station(2, mode="flush") > 0
        assert testbed.ap.detach_station(2, mode="flush") == 0

    def test_detach_unknown_station_raises(self):
        testbed = self._loaded_testbed()
        with pytest.raises(ValueError, match="no such station"):
            testbed.ap.detach_station(42)
        with pytest.raises(ValueError, match="no such station"):
            testbed.ap.remove_station(42)

    def test_reattach_while_parked(self):
        testbed = self._loaded_testbed()
        ap = testbed.ap
        assert ap.detach_station(2, mode="park") == 0
        assert 2 in ap._detached
        ap.reattach_station(2)
        assert 2 not in ap._detached
        ap.reattach_station(2)  # second reattach is a no-op
        # The station keeps delivering after the doze cycle.
        before = testbed.stations[2].rx_packets
        testbed.sim.run(until_us=testbed.sim.sec(0.2))
        assert testbed.stations[2].rx_packets > before

    def test_remove_while_parked_flushes(self):
        # Parking keeps the queues resident; a roam handoff must still
        # flush them even though the station is already detached.
        testbed = self._loaded_testbed()
        ap = testbed.ap
        assert ap.detach_station(2, mode="park") == 0
        flushed = ap.remove_station(2)
        assert flushed > 0
        assert 2 not in ap.stations
        # Tombstone: the index stays detached so shared-qdisc residue
        # draining later is never scheduled.
        assert 2 in ap._detached

    def test_roam_back_clears_tombstone(self):
        testbed = self._loaded_testbed()
        ap = testbed.ap
        node = testbed.stations[2]
        ap.remove_station(2)
        assert 2 in ap._detached
        ap.add_station(node)
        assert 2 not in ap._detached
        assert 2 in ap.stations


# ----------------------------------------------------------------------
# Single-BSS equivalence: the rates entry and the Topology entry build
# the same testbed, byte for byte
# ----------------------------------------------------------------------
class TestSingleBssEquivalence:
    def test_traces_and_results_byte_identical(self, tmp_path):
        from repro.experiments.config import three_station_rates
        from repro.experiments.testbed import Testbed, TestbedOptions
        from repro.experiments.workloads import saturating_udp_download

        legacy_trace = tmp_path / "legacy.jsonl"
        campus_trace = tmp_path / "campus.jsonl"

        legacy = Testbed(
            three_station_rates(),
            TestbedOptions(
                scheme=Scheme.AIRTIME, seed=3,
                telemetry=TelemetryConfig(trace_path=str(legacy_trace),
                                          metrics=True, spans=True,
                                          ledger=True),
            ),
        )
        saturating_udp_download(legacy)
        legacy_window = legacy.run(0.6, 0.3)
        legacy.finish_telemetry()

        campus = CampusTestbed(
            campus_topology(n_bss=1, stations_per_bss=3),
            CampusOptions(
                scheme=Scheme.AIRTIME, seed=3,
                telemetry=TelemetryConfig(trace_path=str(campus_trace),
                                          metrics=True, spans=True,
                                          ledger=True),
            ),
        )
        saturating_udp_download(campus)
        campus_window = campus.run(0.6, 0.3)
        campus.finish_telemetry()

        assert campus_window == legacy_window
        assert campus.tracker.airtime_us == legacy.tracker.airtime_us
        assert campus.tracker.delivered_bytes == legacy.tracker.delivered_bytes
        assert campus_trace.read_bytes() == legacy_trace.read_bytes()


# ----------------------------------------------------------------------
# One testbed: options, validation, watchdogs and faults on any topology
# ----------------------------------------------------------------------
class TestOneTestbed:
    def _two_channels(self, **options):
        topo = campus_topology(n_bss=2, n_channels=2, stations_per_bss=2)
        return CampusTestbed(topo, CampusOptions(seed=1, **options))

    def test_one_options_dataclass_and_one_class(self):
        from repro.experiments.config import thirty_station_rates
        from repro.experiments.testbed import Testbed, TestbedOptions
        from repro.phy.rates import RATE_LEGACY_1M

        assert CampusOptions is TestbedOptions
        testbed = Testbed(thirty_station_rates(), TestbedOptions())
        assert isinstance(testbed, CampusTestbed)
        # Explicit PHY rates reach the stations, MCS index or not.
        assert testbed.stations[0].rate is RATE_LEGACY_1M
        assert len(testbed.stations) == 30

    def test_nan_window_is_rejected_not_run_forever(self, five_second_alarm):
        """``Simulator.run(until_us=nan)`` never reached its bound while
        the saturating source kept the queue full: the run hung."""
        from repro.experiments.workloads import saturating_udp_download

        testbed = make_testbed(Scheme.AIRTIME)
        saturating_udp_download(testbed)
        with pytest.raises(ValueError, match="duration_s"):
            testbed.run(float("nan"))

    @pytest.mark.parametrize("duration_s, warmup_s, named", [
        (0.0, 0.0, "duration_s"), (-1.0, 0.0, "duration_s"),
        (float("inf"), 0.0, "duration_s"), (1.0, -0.5, "warmup_s"),
        (1.0, float("nan"), "warmup_s"), (1.0, float("inf"), "warmup_s"),
    ])
    def test_empty_or_unbounded_window_rejected(self, duration_s, warmup_s,
                                                named):
        testbed = make_testbed(Scheme.AIRTIME)
        with pytest.raises(ValueError, match=named):
            testbed.run(duration_s, warmup_s)
        assert testbed.sim.now == 0.0

    def test_negative_wire_delay_rejected_by_both_entries(self):
        with pytest.raises(ValueError, match="delay must be non-negative"):
            make_testbed(Scheme.AIRTIME, wire_delay_us=-5)
        with pytest.raises(ValueError, match="delay must be non-negative"):
            self._two_channels(wire_delay_us=-5)

    def test_one_cell_accessors_point_at_the_containers(self):
        campus = self._two_channels()
        with pytest.raises(ValueError, match=r"2 cells.*bss\[\.\.\.\]"):
            campus.ap
        with pytest.raises(ValueError, match=r"mediums\[\.\.\.\]"):
            campus.medium
        one = make_testbed(Scheme.AIRTIME)
        assert one.ap is one.bss[0].ap
        assert one.medium is one.mediums[0]
        assert one.tracker is one.trackers[0]

    def test_fault_schedule_stations_checked_at_construction(self):
        from repro.faults import BurstLoss, FaultSchedule

        churn = FaultSchedule(churn=(Churn(station=7, detach_s=0.1),))
        burst = FaultSchedule(burst_loss=(
            BurstLoss(station=7, start_s=0.1, end_s=0.2),))
        with pytest.raises(ValueError,
                           match="churn references unknown station 7"):
            make_testbed(Scheme.AIRTIME, faults=churn)
        with pytest.raises(ValueError,
                           match="burst_loss references unknown station 7"):
            self._two_channels(faults=burst)
        self._two_channels(faults=FaultSchedule(
            churn=(Churn(station=3, detach_s=0.1),)))  # station 3 exists

    def test_strict_stall_detector_covers_every_channel(self):
        """A parked backlog on channel 1 is a stall even while channel 0
        keeps transmitting."""
        from repro.experiments.workloads import saturating_udp_download
        from repro.faults import FaultSchedule, InvariantViolation

        faults = FaultSchedule(churn=(
            Churn(station=2, detach_s=0.2, mode="park"),
            Churn(station=3, detach_s=0.2, mode="park"),
        ))
        campus = self._two_channels(scheme=Scheme.FQ_CODEL, faults=faults,
                                    strict=True)
        saturating_udp_download(campus)
        with pytest.raises(InvariantViolation, match="stall.*channel 1"):
            campus.run(4.0)

    def test_strict_livelock_raises_and_leaves_a_flight_bundle(self):
        """The stall-guard livelock, planted in a 2-BSS strict run: the
        engine's stall guard ends it, and the run's ``FailedResult``
        carries the registered testbed's state as its evidence."""
        from repro.runner import Runner, RunSpec

        (result,) = Runner(jobs=1).map(
            [RunSpec.make("tests.test_topology:livelocked_campus")])
        failure = result.error
        assert failure.phase == "error"
        assert failure.error.startswith("SimulationError")
        assert "stall" in failure.error
        assert failure.evidence["options"] == {"scheme": "AIRTIME", "seed": 1,
                                               "strict": True, "stations": 4}
        assert "stall_violations" in failure.evidence["watchdog"]

    def test_faults_reach_a_multi_cell_testbed(self):
        """Churn resolves the serving AP at fire time (after a roam) and
        interference hits every medium; conservation still balances."""
        from repro.experiments.workloads import saturating_udp_download
        from repro.faults import FaultSchedule, Interference

        topo = campus_topology(
            n_bss=2, n_channels=1, stations_per_bss=2,
            roam=(RoamEvent(station=0, at_s=0.15, to_bss=1),),
        )
        faults = FaultSchedule(
            interference=(Interference(start_s=0.1, end_s=0.3),),
            churn=(Churn(station=0, detach_s=0.2, reattach_s=0.3),),
        )
        campus = CampusTestbed(topo, CampusOptions(
            scheme=Scheme.AIRTIME, seed=1, faults=faults, strict=True))
        saturating_udp_download(campus)
        failed = []
        campus.mediums[0].add_observer(
            lambda rec: failed.append(rec) if not rec.success else None)
        campus.run(0.4)
        assert campus.fault_injector.summary()["detaches"] == 1
        assert campus.bss[1].ap.drops.counts["mac"]["detach"] > 0
        # The clean medium only ever fails inside the interference window.
        assert failed and all(
            0.1e6 <= rec.start_us + rec.airtime_us <= 0.3e6 for rec in failed)
        assert campus.conservation.ok

    def test_shard_balances_sum_to_the_whole_testbed_balance(self):
        from repro.experiments.workloads import saturating_udp_download
        from repro.faults import audit_conservation

        campus = self._two_channels(scheme=Scheme.FIFO)
        saturating_udp_download(campus)
        campus.run(0.3)
        # Cook the books differently per channel: the whole-testbed
        # count must see exactly what the shards see.
        campus.bss[0].ap.downlink_enqueued += 3
        campus.bss[1].ap.downlink_enqueued += 4
        shards = campus.audit_conservation()
        assert {k: r.balance for k, r in shards.items()} == \
            {"ch0": 3, "ch1": 4}
        whole = audit_conservation(campus)
        assert whole.balance == 7
        for field in ("enqueued", "delivered", "dropped", "resident"):
            assert getattr(whole, field) == sum(
                getattr(r, field) for r in shards.values())


# ----------------------------------------------------------------------
# Roaming end-to-end
# ----------------------------------------------------------------------
class TestRoaming:
    def test_roam_moves_station_between_cochannel_cells(self):
        from repro.experiments.campus import campus_metrics
        from repro.experiments.workloads import saturating_udp_download

        topo = campus_topology(
            n_bss=2, n_channels=1, stations_per_bss=2,
            roam=(RoamEvent(station=0, at_s=0.3, to_bss=1),),
        )
        campus = CampusTestbed(topo, CampusOptions(scheme=Scheme.AIRTIME,
                                                   seed=1))
        flows = saturating_udp_download(campus)
        window_us = campus.run(0.4, 0.2)
        assert campus.serving[0] == 1
        assert len(campus.roam_log) == 1
        _, station, from_bss, to_bss, flushed = campus.roam_log[0]
        assert (station, from_bss, to_bss) == (0, 0, 1)
        assert flushed > 0  # saturating UDP keeps the queues loaded
        metrics = campus_metrics(campus, flows, window_us)
        assert metrics["bss"]["0"]["stations"] == 1
        assert metrics["bss"]["1"]["stations"] == 3
        assert metrics["roams"] == 1
        # Conservation holds across the handoff (strict run audits it).
        assert all(r.ok for r in campus.audit_conservation().values())

    def test_roam_while_frame_to_the_station_is_on_the_air(self):
        """Falsifying example Hypothesis found for
        ``test_conservation_under_roam_and_churn``: the handoff lands
        mid-TXOP, so the old AP completes a frame toward a station it no
        longer has.  The packets go to the drop funnel, not a KeyError."""
        from repro.experiments.workloads import saturating_udp_download

        topo = Topology(
            bsses=(BssSpec(bss_id=0, mcs_indices=(15,), channel=0,
                           station_base=0),
                   BssSpec(bss_id=1, mcs_indices=(15,), channel=0,
                           station_base=1)),
            roam=(RoamEvent(station=0, at_s=0.15000000000000002, to_bss=1),),
        )
        campus = CampusTestbed(topo, CampusOptions(scheme=Scheme.AIRTIME,
                                                   seed=1, strict=False))
        saturating_udp_download(campus)
        campus.run(0.25, 0.1)
        assert campus.serving[0] == 1
        assert all(r.ok for r in campus.audit_conservation().values())

    def test_roamed_station_cannot_mark_itself_ready_on_the_old_channel(self):
        """The readiness hook a medium hands out dies with the attachment.
        Station 0 leaves channel 0 for channel 1 with its uplink hardware
        queue full; a late call of the old hook (what a frame completing
        on the old channel would make) must not put it back into channel
        0's draws, and channel 1 — otherwise idle — must serve it at its
        first arbitration."""
        topo = campus_topology(n_bss=2, n_channels=2, stations_per_bss=2)
        campus = CampusTestbed(topo, CampusOptions(scheme=Scheme.AIRTIME,
                                                   seed=1))
        old, new = campus.mediums[0], campus.mediums[1]
        records = {0: [], 1: []}
        old.add_observer(records[0].append)
        new.add_observer(records[1].append)
        arbitrations = []
        arbitrate = new._arbitrate

        def counted_arbitrate():
            arbitrations.append(campus.sim.now)
            arbitrate()
        new._arbitrate = counted_arbitrate

        node = campus.stations[0]
        for seq in range(6):
            node.send(Packet(50, 1500, seq=seq))
        assert node._hw.has_pending()
        stale_hook = node._hw.on_ready
        campus.roam(0, 1)
        assert node.medium is new and node._hw.on_ready is not stale_hook

        stale_hook()
        old.notify_backlog()
        for seq in range(6, 12):
            node.send(Packet(50, 1500, seq=seq))
        assert all(slot.contender is not node for slot in old._ready)
        campus.sim.run(until_us=20_000.0)

        assert records[0] == []
        first = records[1][0]
        assert (first.station, first.downlink, first.bss) == (0, False, 1)
        assert arbitrations[0] == 0.0
        assert first.start_us == arbitrations[0]
        # Every frame the station queued left on the new channel.
        assert sum(rec.n_packets for rec in records[1]) == 12
        assert node.uplink_backlog == 0 and not node._hw.has_pending()

    def test_roam_to_current_cell_is_noop(self):
        topo = campus_topology(n_bss=2, n_channels=1, stations_per_bss=2)
        campus = CampusTestbed(topo, CampusOptions(scheme=Scheme.AIRTIME))
        assert campus.roam(0, 0) == 0
        assert not campus.roam_log


# ----------------------------------------------------------------------
# The bss dimension in summaries and waterfalls
# ----------------------------------------------------------------------
class TestBssDimension:
    def _traced_run(self, tmp_path, multi: bool):
        from repro.experiments.workloads import saturating_udp_download

        path = tmp_path / ("multi.jsonl" if multi else "single.jsonl")
        topo = campus_topology(n_bss=2 if multi else 1, n_channels=1,
                               stations_per_bss=2)
        campus = CampusTestbed(
            topo,
            CampusOptions(
                scheme=Scheme.AIRTIME, seed=1,
                telemetry=TelemetryConfig(trace_path=str(path), spans=True),
            ),
        )
        saturating_udp_download(campus)
        campus.run(0.3, 0.1)
        campus.finish_telemetry()
        return path

    def test_summarize_multi_bss_rollup(self, tmp_path):
        from repro.telemetry.summarize import format_summary, summarize_file

        summary = summarize_file(str(self._traced_run(tmp_path, multi=True)))
        assert summary.station_bss == {0: 0, 1: 0, 2: 1, 3: 1}
        text = format_summary(summary)
        assert "Per-BSS rollup" in text
        assert "bss=0" in text and "bss=1" in text

    @pytest.mark.parametrize("name", ["campus-2bss-roam/AIRTIME",
                                      "campus-roam-back/AIRTIME"])
    def test_rollup_books_a_roamer_where_it_transmitted(self, name,
                                                        tmp_path):
        """Each rollup row is its BSS's live tracker: airtime, share and
        Jain, not the last BSS a roamer was seen in."""
        from repro.telemetry.summarize import format_summary, summarize_file
        from repro.validation import catalogue

        campus = catalogue.run_traced(name)
        path = campus.telemetry.trace.write_jsonl(
            str(tmp_path / "run.trace.jsonl"))
        text = format_summary(summarize_file(str(path)))
        block = text.split("Per-BSS rollup (measurement window):\n")[1]
        rows = [line.split()
                for line in block.split("\n\n")[0].splitlines()[1:]]
        assert len(rows) == len(campus.trackers)
        total = sum(campus.telemetry.account.airtime_us.values())
        for (bss, _, airtime_ms, share, jain), (bss_id, tracker) in zip(
                rows, sorted(campus.trackers.items())):
            airtime = sum(tracker.airtime_us.values())
            assert int(bss) == bss_id
            assert airtime_ms == f"{airtime / 1e3:.2f}"
            assert share == f"{airtime / total:.1%}"
            assert jain == f"{tracker.jain_airtime():.3f}"

    def test_summarize_legacy_trace_unchanged(self, tmp_path):
        from repro.telemetry.summarize import format_summary, summarize_file

        summary = summarize_file(str(self._traced_run(tmp_path, multi=False)))
        # Single-BSS tx records carry no bss field: the summary and its
        # rendering are exactly the pre-topology output.
        assert summary.station_bss == {}
        text = format_summary(summary)
        assert "Per-BSS rollup" not in text
        assert "bss=" not in text

    def test_waterfall_groups_by_bss(self, tmp_path):
        from repro.analysis.attribution import (
            Attribution,
            attribute_file,
            format_waterfall,
        )

        attribution = attribute_file(str(self._traced_run(tmp_path,
                                                          multi=True)))
        assert attribution.bss_of == {0: 0, 1: 0, 2: 1, 3: 1}
        text = format_waterfall(attribution)
        assert "(bss 0)" in text and "(bss 1)" in text
        # Serialisation round-trips the new dimension; old payloads
        # without the key still load.
        data = attribution.to_dict()
        assert Attribution.from_dict(data).bss_of == attribution.bss_of
        data.pop("bss_of")
        assert Attribution.from_dict(data).bss_of == {}
