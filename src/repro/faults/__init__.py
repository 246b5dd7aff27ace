"""Fault injection: channel impairments, station churn, and watchdogs.

The paper's evaluation runs on a clean testbed; real WiFi networks lose
associations, suffer interference bursts, and watch stations' rates
collapse.  This package injects those failure modes into the simulator
deterministically — every impairment is driven by named RNG streams and
scheduled simulation events, so an impaired run replays bit-identically
for a fixed seed — and ships the invariant watchdogs that keep the
simulator honest while being abused.
"""

from repro.faults.gilbert import GilbertElliott
from repro.faults.injector import FaultInjector, MAX_ERROR_PROB
from repro.faults.schedule import (
    BurstLoss,
    Churn,
    FaultSchedule,
    Interference,
    RateCrash,
)
from repro.faults.watchdog import (
    ConservationReport,
    InvariantViolation,
    StallDetector,
    audit_conservation,
    count_conservation,
)

__all__ = [
    "BurstLoss",
    "Churn",
    "ConservationReport",
    "FaultInjector",
    "FaultSchedule",
    "GilbertElliott",
    "Interference",
    "InvariantViolation",
    "MAX_ERROR_PROB",
    "RateCrash",
    "StallDetector",
    "audit_conservation",
    "count_conservation",
]
