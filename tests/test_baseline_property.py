"""Tan & Guttag's *baseline property* as a two-run metamorphic test.

Tan & Guttag ("Time-based Fairness Improves Performance in Multi-rate
WLANs", USENIX ATC 2004) define it: under time-based fairness, a station
in a mixed-rate cell gets the goodput it would get in a cell of the same
size where every station runs at its rate.  The expected value comes
from that second run, not from any earlier output of this code.

Derivation.  Let ``e(r)`` be the goodput a station at PHY rate ``r``
delivers per second of airtime it holds: its aggregate's payload bits
over the aggregate's airtime (preamble, A-MPDU, block ack).  With ``n``
saturated stations and a medium busy with data a fraction ``U`` of the
time, station ``i`` gets goodput ``G_i = s_i * U * e(r_i)``, where
``s_i`` is its share of that airtime.

* Airtime fairness (Algorithm 3) makes ``s_i = 1/n`` in any cell.  The
  AP builds station ``i``'s aggregates from its own TID queue, bounded
  only by the A-MPDU limits and the TXOP cap at ``r_i``, so ``e(r_i)``
  is the same in both cells.  ``U`` differs only by the idle gap before
  each TXOP, a small share of the airtime at these aggregate sizes, so
  the mixed/homogeneous ratio is 1 up to that gap.
* FIFO and FQ-MAC share transmission *opportunities*, not airtime, so
  the slow station's ``s_i`` grows past ``1/n`` in the mixed cell and
  the fast stations' shrinks: the ratio moves far from 1.

The band is fixed before the run: Airtime holds every station within
±5% on seeds 1 and 2; FIFO and FQ-MAC each have a station outside ±20%.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import pytest

from repro.experiments.config import three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.experiments.workloads import saturating_udp_download
from repro.mac.ap import Scheme
from repro.phy.rates import PhyRate

AIRTIME_BAND = 0.05
SEPARATION = 0.20


@lru_cache(maxsize=None)
def _goodput_mbps(rates: Tuple[PhyRate, ...], scheme: Scheme,
                  seed: int) -> Tuple[float, ...]:
    """Per-station goodput (Mbit/s) of saturating downstream UDP."""
    testbed = Testbed(list(rates), TestbedOptions(scheme=scheme, seed=seed))
    saturating_udp_download(testbed)
    window_us = testbed.run(duration_s=6.0, warmup_s=2.0)
    return tuple(testbed.tracker.throughput_bps(i, window_us) / 1e6
                 for i in range(len(rates)))


def baseline_ratios(scheme: Scheme, seed: int) -> Tuple[float, ...]:
    """Station ``i``'s goodput in the mixed cell over its goodput in the
    cell where every station runs at ``i``'s rate (3×MCS15, 3×MCS0)."""
    rates = tuple(three_station_rates())
    mixed = _goodput_mbps(rates, scheme, seed)
    return tuple(
        mixed[i] / _goodput_mbps((rate,) * len(rates), scheme, seed)[i]
        for i, rate in enumerate(rates))


@pytest.mark.parametrize("seed", [1, 2])
def test_airtime_fairness_has_the_baseline_property(seed):
    ratios = baseline_ratios(Scheme.AIRTIME, seed)
    assert all(abs(r - 1.0) <= AIRTIME_BAND for r in ratios), ratios


@pytest.mark.parametrize("scheme", [Scheme.FIFO, Scheme.FQ_MAC])
def test_schemes_without_airtime_fairness_break_it(scheme):
    ratios = baseline_ratios(scheme, seed=1)
    assert any(abs(r - 1.0) > SEPARATION for r in ratios), ratios
