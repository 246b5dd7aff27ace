"""The experiment index: one row per table or figure the harness runs.

This is the only table of experiments and :meth:`Experiment.run` the
only way to run one.  ``repro <id>`` prints
``row.module.format_table(row.run(...))``, ``repro list`` prints the
rows, and the report reads its durations from them (times
``--duration-scale``).  Adding an experiment is one module exposing
``specs(duration_s=, warmup_s=, seed=)`` and ``format_table`` (and
``collect(specs, values)`` if its table wants the values reshaped), plus
one row here.  Whether an experiment takes ``telemetry=`` / ``faults=``
/ ``strict=`` is read off ``specs``'s signature, not kept in a second
list.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Dict, Optional, Tuple

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
from repro.runner import Runner, execute

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
        """Does ``module.specs`` take this keyword?"""
        return kwarg in inspect.signature(self.module.specs).parameters

    def run(self, *, duration_s: Optional[float] = None,
            warmup_s: Optional[float] = None, seed: int = 1,
            runner: Optional[Runner] = None, **kwargs: Any) -> Any:
        """Execute ``module.specs`` over the given window (this row's when
        omitted) and return the values, or ``module.collect``'s reshaping
        of them."""
        specs = self.module.specs(
            duration_s=self.duration_s if duration_s is None else duration_s,
            warmup_s=self.warmup_s if warmup_s is None else warmup_s,
            seed=seed, **kwargs)
        values = execute(specs, runner)
        collect = getattr(self.module, "collect", None)
        return values if collect is None else collect(specs, values)


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
