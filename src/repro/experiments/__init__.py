"""Evaluation harness: one module per table/figure of the paper.

| Module | Reproduces |
|---|---|
| ``table1`` | Table 1 (analytical model vs measured UDP) |
| ``latency`` | Figures 1 and 4 (ping CDF under TCP load) |
| ``airtime_udp`` | Figure 5 (airtime shares, one-way UDP) |
| ``fairness_index`` | Figure 6 (Jain's index across traffic types) |
| ``tcp_throughput`` | Figure 7 (per-station TCP throughput) |
| ``sparse`` | Figure 8 (sparse-station optimisation) |
| ``scaling`` | Figures 9–10 + §4.1.5 totals (30 stations) |
| ``voip`` | Table 2 (VoIP MOS / throughput) |
| ``web`` | Figure 11 (page load times) |

Each module exposes ``run(...)`` returning dataclasses and
``format_table(results)`` printing the same rows/series the paper
reports; :mod:`repro.experiments.registry` is the one index of them
(ids, descriptions, paper-length windows) that the CLI and the report
read.
"""

from repro.experiments import (
    airtime_udp,
    fairness_index,
    latency,
    paper_data,
    scaling,
    sparse,
    table1,
    tcp_throughput,
    voip,
    web,
)
from repro.experiments.config import (
    FAST_STATIONS,
    SLOW_STATION,
    SPARSE_STATION,
    four_station_rates,
    thirty_station_rates,
    three_station_rates,
)
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.experiments.workloads import (
    add_pings,
    saturating_udp_download,
    tcp_bidir,
    tcp_download,
)
from repro.mac.ap import Scheme

__all__ = [
    "FAST_STATIONS",
    "SLOW_STATION",
    "SPARSE_STATION",
    "Scheme",
    "Testbed",
    "TestbedOptions",
    "add_pings",
    "airtime_udp",
    "fairness_index",
    "paper_data",
    "four_station_rates",
    "latency",
    "saturating_udp_download",
    "scaling",
    "sparse",
    "table1",
    "tcp_bidir",
    "tcp_download",
    "tcp_throughput",
    "thirty_station_rates",
    "three_station_rates",
    "voip",
    "web",
]
