"""repro — reproduction of "Ending the Anomaly: Achieving Low Latency and
Airtime Fairness in WiFi" (Høiland-Jørgensen et al., USENIX ATC 2017).

The package implements the paper's two-part contribution — the integrated
per-TID FQ-CoDel queueing structure (Algorithms 1–2) and the deficit-based
airtime fairness scheduler (Algorithm 3) — on top of a discrete-event
802.11n simulator that stands in for the paper's hardware testbed, plus
the analytical model of Section 2.2.1 and the full evaluation harness.

Quick start::

    from repro.experiments import (Scheme, Testbed, TestbedOptions,
                                   saturating_udp_download, three_station_rates)

    testbed = Testbed(three_station_rates(), TestbedOptions(scheme=Scheme.AIRTIME))
    saturating_udp_download(testbed)
    testbed.run(duration_s=5.0, warmup_s=2.0)
    print(testbed.tracker.airtime_shares([0, 1, 2]))

See ``examples/quickstart.py`` and DESIGN.md for the full tour.
"""

from repro.core import (
    AccessCategory,
    AirtimeScheduler,
    CoDelParams,
    MacFqStructure,
    Packet,
    PerStationCoDelTuner,
    RoundRobinScheduler,
)
from repro.model import StationModel, predict
from repro.phy import PhyRate, RATE_FAST, RATE_LEGACY_1M, RATE_SLOW, mcs
from repro.sim import RngFactory, Simulator

__version__ = "1.1.0"

__all__ = [
    "AccessCategory",
    "AirtimeScheduler",
    "CoDelParams",
    "MacFqStructure",
    "Packet",
    "PerStationCoDelTuner",
    "PhyRate",
    "RATE_FAST",
    "RATE_LEGACY_1M",
    "RATE_SLOW",
    "RngFactory",
    "RoundRobinScheduler",
    "Simulator",
    "StationModel",
    "mcs",
    "predict",
    "__version__",
]
