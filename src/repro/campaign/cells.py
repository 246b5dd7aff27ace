"""Campaign cell functions: simulation runs that return plain JSON.

Campaign shards are canonical JSON, so cell functions return plain
dicts of numbers — not result dataclasses.  :func:`simulate_cell` is the
standard cell for scheme×station×rate sweeps: it runs the paper's
testbed for one scheme and returns airtime shares, throughput, Jain's
index, and aggregation state, which the reducer folds into per-grid-
point distributions across the seed ladder.

:func:`demo_spec` is the built-in small campaign used by the CLI's
``campaign run demo`` and the CI smoke job.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.campaign.spec import CampaignSpec

__all__ = ["simulate_cell", "campus_cell", "demo_spec", "campus_spec"]

#: Scheme aliases accepted by :func:`simulate_cell` (grid-friendly
#: strings mapping onto :class:`repro.mac.ap.Scheme` values).
_SCHEME_ALIASES = {
    "fifo": "FIFO",
    "fq_codel": "FQ-CoDel",
    "fq_mac": "FQ-MAC",
    "airtime": "Airtime fair FQ",
}


def _resolve_scheme(name: str):
    from repro.mac.ap import Scheme

    return Scheme(_SCHEME_ALIASES.get(str(name).lower(), name))


def simulate_cell(
    scheme: str = "fifo",
    stations: str = "three",
    duration_s: float = 2.0,
    warmup_s: float = 1.0,
    seed: int = 1,
) -> Dict[str, Any]:
    """Run one testbed cell and return JSON-ready metrics.

    ``scheme`` is a scheme alias (``fifo``/``fq_codel``/``fq_mac``/
    ``airtime``) or a literal :class:`~repro.mac.ap.Scheme` value;
    ``stations`` selects the rate profile (``three``/``four``/
    ``thirty``).
    """
    from repro.analysis.fairness import jain_index
    from repro.experiments.config import (
        four_station_rates,
        three_station_rates,
        thirty_station_rates,
    )
    from repro.experiments.testbed import Testbed, TestbedOptions
    from repro.experiments.workloads import saturating_udp_download

    profiles = {
        "three": three_station_rates,
        "four": four_station_rates,
        "thirty": thirty_station_rates,
    }
    if stations not in profiles:
        raise ValueError(
            f"unknown station profile {stations!r}; "
            f"choose from {sorted(profiles)}"
        )
    testbed = Testbed(
        profiles[stations](),
        TestbedOptions(scheme=_resolve_scheme(scheme), seed=int(seed)),
    )
    saturating_udp_download(testbed)
    window_us = testbed.run(float(duration_s), float(warmup_s))
    station_ids = sorted(testbed.stations)
    shares = testbed.tracker.airtime_shares(station_ids)
    throughput = {
        i: testbed.tracker.throughput_bps(i, window_us) / 1e6
        for i in station_ids
    }
    return {
        "airtime_share": {str(i): round(shares.get(i, 0.0), 9)
                          for i in station_ids},
        "throughput_mbps": {str(i): round(throughput[i], 6)
                            for i in station_ids},
        "total_mbps": round(sum(throughput.values()), 6),
        "jain_airtime": round(
            jain_index([shares.get(i, 0.0) for i in station_ids]), 9
        ),
        "mean_aggregation": {
            str(i): round(testbed.tracker.mean_aggregation(i), 6)
            for i in station_ids
        },
    }


def campus_cell(
    scheme: str = "airtime",
    n_bss: int = 3,
    n_channels: int = 1,
    stations_per_bss: int = 3,
    duration_s: float = 2.0,
    warmup_s: float = 1.0,
    seed: int = 1,
) -> Dict[str, Any]:
    """Run one multi-BSS campus scenario and return JSON-ready metrics.

    The returned dict nests per-BSS groups (``bss.<id>.jain_airtime``,
    ``bss.<id>.p95_ms`` … after the reducer's metric flattening) next to
    campus-wide aggregates, so a BSS-density sweep gets per-cell *and*
    per-campus confidence intervals from the same run.
    """
    from repro.experiments.campus import campus_metrics, _resolve_scheme as resolve
    from repro.experiments.workloads import saturating_udp_download
    from repro.topology import CampusOptions, CampusTestbed, campus_topology

    topology = campus_topology(
        n_bss=int(n_bss),
        n_channels=int(n_channels),
        stations_per_bss=int(stations_per_bss),
    )
    campus = CampusTestbed(
        topology, CampusOptions(scheme=resolve(scheme), seed=int(seed))
    )
    flows = saturating_udp_download(campus)
    window_us = campus.run(float(duration_s), float(warmup_s))
    return campus_metrics(campus, flows, window_us)


def demo_spec(
    duration_s: float = 1.0,
    warmup_s: float = 0.5,
    replications: int = 2,
    base_seed: int = 1,
) -> CampaignSpec:
    """A small scheme×replication campaign over the 3-station testbed."""
    return CampaignSpec.make(
        name="demo",
        fn="repro.campaign.cells:simulate_cell",
        grid={"scheme": ["fifo", "fq_codel", "fq_mac", "airtime"]},
        fixed={"stations": "three", "duration_s": float(duration_s),
               "warmup_s": float(warmup_s)},
        replications=replications,
        base_seed=base_seed,
    )


def campus_spec(
    duration_s: float = 1.5,
    warmup_s: float = 0.5,
    replications: int = 2,
    base_seed: int = 1,
) -> CampaignSpec:
    """The built-in campus campaign: scheme sweep over a 3-BSS co-channel
    cell cluster, reporting per-BSS Jain + sojourn tails per grid point."""
    return CampaignSpec.make(
        name="campus",
        fn="repro.campaign.cells:campus_cell",
        grid={"scheme": ["fifo", "airtime"]},
        fixed={"n_bss": 3, "n_channels": 1, "stations_per_bss": 3,
               "duration_s": float(duration_s), "warmup_s": float(warmup_s)},
        replications=replications,
        base_seed=base_seed,
    )
