"""Declarative multi-BSS topology descriptions.

A :class:`Topology` names N BSSes (cells), assigns each to a channel,
and places stations (by MCS index) inside each cell.  Co-channel BSSes
share one :class:`~repro.mac.medium.Medium`, so inter-BSS contention
flows through the existing DCF arbitration; BSSes on disjoint channels
never interact and can be simulated separately (the
:meth:`Topology.channel_shards` decomposition the campus experiment
shards across the Runner).

Everything here is a frozen dataclass built from plain ints/floats, so a
``Topology`` can ride inside :class:`~repro.runner.spec.RunSpec` kwargs
and the sha256 cache digest unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.faults.schedule import Churn
from repro.phy.rates import PhyRate, mcs

__all__ = ["BssSpec", "RoamEvent", "Topology", "campus_topology"]

#: HT20 MCS indices accepted in :class:`BssSpec` (mirrors ``phy.rates``).
_MAX_MCS = 15


@dataclass(frozen=True)
class BssSpec:
    """One cell: an AP plus its stations, pinned to a channel.

    Stations are described by HT20 MCS index (15 = the paper's fast
    stations, 0 = the slow anomaly-inducing station) and numbered
    globally from ``station_base`` so indices stay unique across the
    whole campus — a requirement for roaming, where a station carries
    its index from cell to cell.
    """

    bss_id: int
    mcs_indices: Tuple[int, ...]
    channel: int = 0
    station_base: int = 0

    def __post_init__(self) -> None:
        if self.bss_id < 0:
            raise ValueError("bss_id must be non-negative")
        if self.channel < 0:
            raise ValueError("channel must be non-negative")
        if self.station_base < 0:
            raise ValueError("station_base must be non-negative")
        if not self.mcs_indices:
            raise ValueError(f"BSS {self.bss_id} has no stations")
        for index in self.mcs_indices:
            if not 0 <= index <= _MAX_MCS:
                raise ValueError(f"MCS index {index} out of range [0, {_MAX_MCS}]")

    @property
    def n_stations(self) -> int:
        return len(self.mcs_indices)

    def station_indices(self) -> Tuple[int, ...]:
        """Global station indices served by this cell at t=0."""
        return tuple(range(self.station_base,
                           self.station_base + len(self.mcs_indices)))

    def station_rates(self) -> List[Tuple[int, PhyRate]]:
        """(global index, PHY rate) pairs in placement order."""
        return [
            (self.station_base + offset, mcs(index))
            for offset, index in enumerate(self.mcs_indices)
        ]


@dataclass(frozen=True)
class RoamEvent:
    """Move ``station`` to ``to_bss`` at ``at_s`` (flush semantics).

    The source AP tears down the station's queues through the drop
    funnel — exactly the PR-3 ``Churn`` detach path — and the station
    re-associates with the target cell immediately.
    """

    station: int
    at_s: float
    to_bss: int

    def __post_init__(self) -> None:
        if self.at_s <= 0:
            raise ValueError("roam time must be positive")
        if self.station < 0:
            raise ValueError("station must be non-negative")
        if self.to_bss < 0:
            raise ValueError("to_bss must be non-negative")


@dataclass(frozen=True)
class Topology:
    """N BSSes + roaming/churn schedules; the campus scenario object."""

    bsses: Tuple[BssSpec, ...]
    roam: Tuple[RoamEvent, ...] = ()
    churn: Tuple[Churn, ...] = ()

    def __post_init__(self) -> None:
        if not self.bsses:
            raise ValueError("topology needs at least one BSS")
        ids = [spec.bss_id for spec in self.bsses]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate bss ids: {sorted(ids)}")
        seen: Dict[int, int] = {}
        for spec in self.bsses:
            for index in spec.station_indices():
                if index in seen:
                    raise ValueError(
                        f"station {index} placed in both BSS {seen[index]} "
                        f"and BSS {spec.bss_id}"
                    )
                seen[index] = spec.bss_id
        for event in self.roam:
            if event.station not in seen:
                raise ValueError(f"roam references unknown station {event.station}")
            if event.to_bss not in set(ids):
                raise ValueError(f"roam references unknown BSS {event.to_bss}")
        for event in self.churn:
            if event.station not in seen:
                raise ValueError(f"churn references unknown station {event.station}")

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @property
    def n_stations(self) -> int:
        return sum(spec.n_stations for spec in self.bsses)

    @property
    def single_bss(self) -> bool:
        return len(self.bsses) == 1

    def bss(self, bss_id: int) -> BssSpec:
        for spec in self.bsses:
            if spec.bss_id == bss_id:
                return spec
        raise KeyError(bss_id)

    def channels(self) -> Tuple[int, ...]:
        return tuple(sorted({spec.channel for spec in self.bsses}))

    def bss_of_station(self, station: int) -> int:
        """Cell serving ``station`` at t=0."""
        for spec in self.bsses:
            if spec.station_base <= station < spec.station_base + spec.n_stations:
                return spec.bss_id
        raise KeyError(station)

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    def channel_shards(self) -> List["Topology"]:
        """Decompose into independently simulable sub-topologies.

        Channels start in their own shard; a roam event crossing
        channels merges the two (the station carries queues and timing
        across, so the cells interact).  Each shard keeps exactly the
        roam/churn events that touch its stations, and shards are closed
        under roaming by construction.  Returned in ascending order of
        their lowest channel, so sharded execution is deterministic.
        """
        parent: Dict[int, int] = {c: c for c in self.channels()}

        def find(c: int) -> int:
            while parent[c] != c:
                parent[c] = parent[parent[c]]
                c = parent[c]
            return c

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        channel_of = {spec.bss_id: spec.channel for spec in self.bsses}
        for event in self.roam:
            union(channel_of[self.bss_of_station(event.station)],
                  channel_of[event.to_bss])

        groups: Dict[int, List[int]] = {}
        for channel in self.channels():
            groups.setdefault(find(channel), []).append(channel)

        shards: List[Topology] = []
        for root in sorted(groups):
            members = set(groups[root])
            bsses = tuple(s for s in self.bsses if s.channel in members)
            stations = {i for s in bsses for i in s.station_indices()}
            shards.append(Topology(
                bsses=bsses,
                roam=tuple(e for e in self.roam if e.station in stations),
                churn=tuple(e for e in self.churn if e.station in stations),
            ))
        return shards


def campus_topology(
    n_bss: int,
    n_channels: int = 1,
    stations_per_bss: int = 3,
    slow_per_bss: int = 1,
    fast_mcs: int = 15,
    slow_mcs: int = 0,
    roam: Tuple[RoamEvent, ...] = (),
    churn: Tuple[Churn, ...] = (),
) -> Topology:
    """Dense-venue helper: ``n_bss`` cells striped over ``n_channels``.

    Each cell mirrors the paper's testbed shape — fast stations plus
    trailing slow ones (``stations_per_bss=3, slow_per_bss=1`` is
    exactly the three-station setup of Section 4).  Station indices are
    globally sequential, so a single-BSS campus is index-compatible
    with a one-cell :class:`~repro.experiments.testbed.Testbed`.
    """
    if n_bss <= 0:
        raise ValueError("n_bss must be positive")
    if n_channels <= 0:
        raise ValueError("n_channels must be positive")
    if not 0 <= slow_per_bss <= stations_per_bss:
        raise ValueError("slow_per_bss must be within [0, stations_per_bss]")
    n_fast = stations_per_bss - slow_per_bss
    indices = (fast_mcs,) * n_fast + (slow_mcs,) * slow_per_bss
    bsses = tuple(
        BssSpec(
            bss_id=i,
            mcs_indices=indices,
            channel=i % n_channels,
            station_base=i * stations_per_bss,
        )
        for i in range(n_bss)
    )
    return Topology(bsses=bsses, roam=tuple(roam), churn=tuple(churn))
