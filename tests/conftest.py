"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import signal

import pytest

from repro.sim.engine import Simulator

try:
    from hypothesis import settings

    # "ci" pins Hypothesis to its deterministic derandomized mode so CI
    # failures always reproduce locally with HYPOTHESIS_PROFILE=ci; the
    # default profile keeps random exploration for local runs.
    settings.register_profile("ci", derandomize=True, deadline=None,
                              max_examples=30)
    settings.register_profile("dev", deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - hypothesis is in the dev image
    pass


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def five_second_alarm():
    """Turn a hang into a failure: SIGALRM raises in the test after 5 s."""
    def on_alarm(signum, frame):
        raise TimeoutError("still running after 5 s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(5)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def make_testbed(scheme, rates=None, seed=1, **option_kwargs):
    """Build a small testbed for integration tests."""
    from repro.experiments.config import three_station_rates
    from repro.experiments.testbed import Testbed, TestbedOptions

    rates = rates if rates is not None else three_station_rates()
    return Testbed(rates, TestbedOptions(scheme=scheme, seed=seed, **option_kwargs))
