"""Discrete-event simulation substrate (event loop, clock, RNG streams)."""

from repro.sim.engine import (
    US_PER_MS,
    US_PER_SEC,
    PeriodicTimer,
    SimulationError,
    Simulator,
    Timer,
    events_processed_total,
)
from repro.sim.rng import RngFactory

__all__ = [
    "PeriodicTimer",
    "RngFactory",
    "SimulationError",
    "Simulator",
    "Timer",
    "US_PER_MS",
    "US_PER_SEC",
    "events_processed_total",
]
