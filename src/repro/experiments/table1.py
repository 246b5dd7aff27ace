"""Table 1: analytical model vs measured UDP throughput.

The paper feeds the *measured* mean aggregation level of each station
into the analytical model (Section 2.2.1) and compares the predicted
per-station rate ``R(i)`` against the measured UDP throughput, for the
FIFO baseline and the airtime-fair configuration.  This module does the
same: run the UDP scenario under FIFO and Airtime, extract aggregation
levels and throughputs, and evaluate equations (1)–(5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments import airtime_udp
from repro.experiments.airtime_udp import AirtimeUdpResult
from repro.mac.ap import Scheme
from repro.runner import RunSpec
from repro.model.analytical import (
    StationModel,
    StationPrediction,
    format_table1,
    predict,
)
from repro.phy.rates import PhyRate
from repro.experiments.config import three_station_rates

__all__ = ["Table1Result", "specs", "collect", "format_table"]

PACKET_BYTES = 1500


@dataclass(frozen=True)
class Table1Result:
    """Predictions and measurements for both halves of Table 1."""

    baseline_predictions: List[StationPrediction]
    fair_predictions: List[StationPrediction]
    baseline_measured_mbps: List[float]
    fair_measured_mbps: List[float]
    baseline_airtime_shares: List[float]
    fair_airtime_shares: List[float]


def _station_models(
    aggregation: List[float], rates: List[PhyRate]
) -> List[StationModel]:
    return [
        StationModel(
            aggregation=max(1.0, agg),
            payload_bytes=PACKET_BYTES,
            rate=rate,
            label=f"station{i}",
        )
        for i, (agg, rate) in enumerate(zip(aggregation, rates))
    ]


def specs(*, duration_s: float, warmup_s: float,
          seed: int = 1) -> List[RunSpec]:
    """Figure 5's UDP runs under FIFO and Airtime: Table 1's two halves."""
    return airtime_udp.specs((Scheme.FIFO, Scheme.AIRTIME),
                             duration_s=duration_s, warmup_s=warmup_s,
                             seed=seed)


def collect(specs: Sequence[RunSpec],
            values: Sequence[AirtimeUdpResult]) -> Table1Result:
    """Feed each half's measured aggregation into the model."""
    rates = three_station_rates()
    stations = list(range(len(rates)))
    fifo, fair = values

    fifo_models = _station_models(
        [fifo.mean_aggregation[i] for i in stations], rates
    )
    fair_models = _station_models(
        [fair.mean_aggregation[i] for i in stations], rates
    )

    return Table1Result(
        baseline_predictions=predict(fifo_models, airtime_fairness=False),
        fair_predictions=predict(fair_models, airtime_fairness=True),
        baseline_measured_mbps=[fifo.throughput_mbps[i] for i in stations],
        fair_measured_mbps=[fair.throughput_mbps[i] for i in stations],
        baseline_airtime_shares=[fifo.airtime_shares[i] for i in stations],
        fair_airtime_shares=[fair.airtime_shares[i] for i in stations],
    )


def format_table(result: Table1Result) -> str:
    return format_table1(
        result.baseline_predictions,
        result.fair_predictions,
        measured_baseline=result.baseline_measured_mbps,
        measured_fair=result.fair_measured_mbps,
    )
