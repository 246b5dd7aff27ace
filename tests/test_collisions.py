"""Tests for the DCF collision / binary-exponential-backoff extension."""

from __future__ import annotations

import random

import pytest

from repro.core.packet import AccessCategory, Packet, flow_id_allocator
from repro.mac.aggregation import Aggregate
from repro.mac.medium import Medium
from repro.phy.constants import CW_MAX, CW_MIN
from repro.phy.rates import RATE_FAST
from repro.sim.engine import Simulator
from tests.test_medium import FakeNode


def build_medium(sim, n_nodes, seed=1, collisions=True, frames=50):
    medium = Medium(sim, random.Random(seed), collisions=collisions)
    records = []
    medium.add_observer(records.append)
    nodes = []
    for i in range(n_nodes):
        node = FakeNode(station=i)
        medium.attach(node, node.hw, is_ap=(i == 0))
        node.give(frames)
        nodes.append(node)
    medium.notify_backlog()
    return medium, nodes, records


class TestCollisions:
    def test_collisions_occur_with_many_contenders(self, sim):
        medium, nodes, _ = build_medium(sim, n_nodes=8)
        sim.run()
        assert medium.collision_count > 0

    def test_no_collisions_when_disabled(self, sim):
        medium, nodes, _ = build_medium(sim, n_nodes=8, collisions=False)
        sim.run()
        assert medium.collision_count == 0

    def test_colliding_transmissions_all_fail(self, sim):
        medium, nodes, records = build_medium(sim, n_nodes=6, frames=20)
        sim.run()
        failures = [r for r in records if not r.success]
        assert len(failures) >= 2 * medium.collision_count

    def test_every_frame_gets_exactly_one_completion(self, sim):
        """The medium never loses or duplicates a txop: every handed-off
        aggregate completes exactly once (retrying is the node's job)."""
        medium, nodes, _ = build_medium(sim, n_nodes=4, frames=20)
        sim.run()
        for node in nodes:
            assert len(node.completions) == 20
            seen = {id(agg) for agg, _ in node.completions}
            assert len(seen) == 20

    def test_backoff_window_grows_on_collision(self, sim):
        medium, nodes, _ = build_medium(sim, n_nodes=8, frames=10)
        sim.run()
        assert medium.collision_count > 0
        # BEB left traces: some contender widened beyond CWmin at least
        # once (state may have been reset by a later success, so check
        # the counter rather than the final dict).
        # Re-run a single forced collision to inspect the mechanics:
        medium2 = Medium(sim.__class__(), random.Random(1), collisions=True)
        node = FakeNode()
        medium2._beb_on_collision(node, AccessCategory.BE)
        assert medium2._cw_for(node, AccessCategory.BE) == 2 * CW_MIN + 1
        medium2._beb_on_collision(node, AccessCategory.BE)
        assert medium2._cw_for(node, AccessCategory.BE) == 4 * CW_MIN + 3

    def test_backoff_window_capped_at_cwmax(self):
        medium = Medium(Simulator(), random.Random(1), collisions=True)
        node = FakeNode()
        for _ in range(20):
            medium._beb_on_collision(node, AccessCategory.BE)
        assert medium._cw_for(node, AccessCategory.BE) == CW_MAX

    def test_backoff_resets_on_success(self):
        medium = Medium(Simulator(), random.Random(1), collisions=True)
        node = FakeNode()
        medium._beb_on_collision(node, AccessCategory.BE)
        medium._beb_on_success(node)
        assert medium._cw_for(node, AccessCategory.BE) == CW_MIN

    def test_collision_rate_increases_with_contenders(self, sim):
        def rate(n):
            local_sim = Simulator()
            medium, _, records = build_medium(local_sim, n_nodes=n, frames=30)
            local_sim.run()
            return medium.collision_count / max(1, len(records))

        assert rate(12) > rate(2)

    def test_throughput_cost_of_collisions(self):
        """Collisions waste airtime: the time spent per *successful*
        transmission rises versus the ideal no-collision model."""

        def cost_per_success(collisions):
            local_sim = Simulator()
            _, nodes, records = build_medium(
                local_sim, n_nodes=10, frames=30, collisions=collisions
            )
            local_sim.run()
            successes = sum(1 for r in records if r.success)
            assert successes > 0
            return local_sim.now / successes

        assert cost_per_success(True) > cost_per_success(False)


class TestEndToEndWithCollisions:
    def test_testbed_runs_with_collisions(self):
        """Full stack: AP + stations + TCP over a colliding medium."""
        from repro.experiments.config import three_station_rates
        from repro.experiments.testbed import Testbed, TestbedOptions
        from repro.mac.ap import Scheme
        from repro.traffic.tcp import TcpConnection

        tb = Testbed(three_station_rates(),
                     TestbedOptions(scheme=Scheme.AIRTIME, seed=1))
        tb.medium.collisions = True
        conn = TcpConnection(tb.sim, tb.server, tb.stations[0],
                             direction="down", total_bytes=100_000)
        done = []
        conn.sender.on_complete(lambda: done.append(1))
        conn.start()
        tb.sim.run(until_us=20_000_000.0)
        assert done
