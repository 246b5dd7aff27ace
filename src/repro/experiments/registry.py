"""The experiment index: one row per table or figure the harness runs.

This is the only table of experiments.  ``repro <id>`` prints
``row.module.format_table(row.module.run(...))``, ``repro list`` prints
the rows, and the report reads its durations from them (times
``--duration-scale``).  Adding an experiment is one module exposing
``run(duration_s=, warmup_s=, seed=, runner=)`` and ``format_table``,
plus one row here.  Whether an experiment takes ``telemetry=`` /
``faults=`` / ``strict=`` is read off ``run``'s signature, not kept in a
second list.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from types import ModuleType
from typing import Dict, Tuple

from repro.experiments import (
    airtime_udp,
    campus,
    fairness_index,
    fault_tolerance,
    latency,
    scaling,
    sparse,
    table1,
    tcp_throughput,
    voip,
    web,
)

__all__ = ["Experiment", "EXPERIMENTS", "BY_ID"]


@dataclass(frozen=True)
class Experiment:
    id: str
    description: str
    #: Paper-length measurement window and warm-up (simulated seconds).
    duration_s: float
    warmup_s: float
    module: ModuleType

    def accepts(self, kwarg: str) -> bool:
        """Does ``module.run`` take this keyword?"""
        return kwarg in inspect.signature(self.module.run).parameters


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment("table1", "analytical model vs measured UDP (Table 1)",
               20, 5, table1),
    Experiment("fig04", "latency with TCP download (Figures 1/4)",
               20, 8, latency),
    Experiment("fig05", "airtime shares, one-way UDP (Figure 5)",
               20, 5, airtime_udp),
    Experiment("fig06", "Jain's fairness index (Figure 6)",
               15, 6, fairness_index),
    Experiment("fig07", "TCP download throughput (Figure 7)",
               20, 8, tcp_throughput),
    Experiment("fig08", "sparse-station optimisation (Figure 8)",
               15, 5, sparse),
    Experiment("fig09", "30-station scaling (Figures 9/10)",
               30, 10, scaling),
    Experiment("table2", "VoIP MOS and throughput (Table 2)", 12, 6, voip),
    Experiment("fig11", "web page-load times (Figure 11)", 40, 5, web),
    Experiment("faults", "fairness/latency under channel impairment and churn",
               10, 2, fault_tolerance),
    Experiment("campus", "multi-BSS campus: co-channel contention + roaming",
               4, 1, campus),
)

BY_ID: Dict[str, Experiment] = {row.id: row for row in EXPERIMENTS}
