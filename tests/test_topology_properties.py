"""Property tests for the multi-BSS topology layer.

Three invariants pin the campus decomposition:

* **Conservation** — every packet an AP accepts is delivered, dropped,
  or resident inside its channel shard, for random topologies and under
  roaming/churn.
* **Channel isolation** — BSSes on disjoint channels never interact:
  simulating them jointly or shard-by-shard is *exact*, and a cell's
  results are independent of what happens on other channels (each
  channel owns its own RNG stream in the seed ladder).
* **Determinism** — sharded campus runs produce identical reports
  whether the Runner executes shards serially or in a process pool.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.campus import run_shard
from repro.experiments.workloads import saturating_udp_download
from repro.faults.schedule import Churn
from repro.mac.ap import Scheme
from repro.topology import (
    CampusOptions,
    CampusTestbed,
    RoamEvent,
    Topology,
    campus_topology,
)

#: Short sim windows keep each Hypothesis example around a second.
_DURATION_S = 0.2
_WARMUP_S = 0.1


@st.composite
def topologies(draw, with_events: bool = False):
    """Random small campus topologies, optionally with roam/churn."""
    n_bss = draw(st.integers(min_value=1, max_value=3))
    n_channels = draw(st.integers(min_value=1, max_value=min(2, n_bss)))
    stations_per_bss = draw(st.integers(min_value=1, max_value=3))
    slow_per_bss = draw(st.integers(min_value=0, max_value=stations_per_bss))
    roam = ()
    churn = ()
    if with_events:
        base = campus_topology(n_bss, n_channels, stations_per_bss,
                               slow_per_bss=slow_per_bss)
        station = draw(st.integers(0, base.n_stations - 1))
        if n_bss > 1 and draw(st.booleans()):
            to_bss = draw(st.integers(0, n_bss - 1))
            roam = (RoamEvent(station=station, at_s=_WARMUP_S + 0.05,
                              to_bss=to_bss),)
        if draw(st.booleans()):
            victim = draw(st.integers(0, base.n_stations - 1))
            mode = draw(st.sampled_from(["flush", "park"]))
            reattach = (_WARMUP_S + 0.12) if draw(st.booleans()) else None
            churn = (Churn(station=victim, detach_s=_WARMUP_S + 0.04,
                           reattach_s=reattach, mode=mode),)
    return campus_topology(n_bss, n_channels, stations_per_bss,
                           slow_per_bss=slow_per_bss, roam=roam, churn=churn)


def _run(topology: Topology, scheme=Scheme.AIRTIME, seed: int = 1):
    campus = CampusTestbed(
        topology, CampusOptions(scheme=scheme, seed=seed, strict=False)
    )
    saturating_udp_download(campus)
    campus.run(_DURATION_S, _WARMUP_S)
    return campus


# ----------------------------------------------------------------------
# Conservation
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(topology=topologies(), scheme=st.sampled_from([Scheme.FIFO,
                                                      Scheme.AIRTIME]))
def test_conservation_over_random_topologies(topology, scheme):
    campus = _run(topology, scheme=scheme)
    reports = campus.audit_conservation()
    assert reports  # one report per channel shard
    for label, report in reports.items():
        assert report.ok, f"[{label}] {report.describe()}"


@settings(max_examples=8, deadline=None)
@given(topology=topologies(with_events=True))
def test_conservation_under_roam_and_churn(topology):
    campus = _run(topology)
    for label, report in campus.audit_conservation().items():
        assert report.ok, f"[{label}] {report.describe()}"


# ----------------------------------------------------------------------
# Channel isolation
# ----------------------------------------------------------------------
@settings(max_examples=5, deadline=None)
@given(
    n_bss=st.integers(min_value=2, max_value=3),
    stations_per_bss=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=1, max_value=4),
)
def test_joint_equals_sharded(n_bss, stations_per_bss, seed):
    """Simulating disjoint channels jointly or separately is exact."""
    topology = campus_topology(n_bss, n_channels=2,
                               stations_per_bss=stations_per_bss)
    joint = run_shard(topology, duration_s=_DURATION_S, warmup_s=_WARMUP_S,
                      seed=seed)
    sharded = {}
    for shard in topology.channel_shards():
        result = run_shard(shard, duration_s=_DURATION_S,
                           warmup_s=_WARMUP_S, seed=seed)
        sharded.update(result["bss"])
    assert joint["bss"] == sharded


@settings(max_examples=5, deadline=None)
@given(
    stations_per_bss=st.integers(min_value=1, max_value=2),
    other_stations=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=1, max_value=4),
)
def test_seed_ladder_independence_across_cells(stations_per_bss,
                                               other_stations, seed):
    """A cell's results never depend on cells parked on other channels.

    Each channel's medium draws from its own named RNG stream, so
    changing the channel-1 cell (or removing it entirely) must leave the
    channel-0 cell's metrics bit-identical.
    """
    def _with_neighbour(n):
        bsses = (
            campus_topology(1, stations_per_bss=stations_per_bss).bsses[0],
        )
        if n:
            from repro.topology import BssSpec

            bsses += (BssSpec(bss_id=1, mcs_indices=(15,) * n, channel=1,
                              station_base=stations_per_bss),)
        return Topology(bsses=bsses)

    alone = run_shard(_with_neighbour(0), duration_s=_DURATION_S,
                      warmup_s=_WARMUP_S, seed=seed)
    paired = run_shard(_with_neighbour(other_stations),
                       duration_s=_DURATION_S, warmup_s=_WARMUP_S, seed=seed)
    assert paired["bss"]["0"] == alone["bss"]["0"]


# ----------------------------------------------------------------------
# Determinism of sharded execution
# ----------------------------------------------------------------------
def test_serial_vs_pool_campus_runs_identical():
    from repro.experiments.registry import BY_ID
    from repro.runner import Runner

    topology = campus_topology(
        n_bss=2, n_channels=2, stations_per_bss=2,
        churn=(Churn(station=0, detach_s=0.15, reattach_s=0.25,
                     mode="flush"),),
    )
    serial = BY_ID["campus"].run(topology=topology, duration_s=_DURATION_S,
                                 warmup_s=_WARMUP_S,
                                 runner=Runner(jobs=1, cache=None))
    pooled = BY_ID["campus"].run(topology=topology, duration_s=_DURATION_S,
                                 warmup_s=_WARMUP_S,
                                 runner=Runner(jobs=2, cache=None))
    assert serial == pooled
