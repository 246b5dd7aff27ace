"""Tan & Guttag's "an idle station costs nothing", as a two-run law.

Tan & Guttag ("Time-based Fairness Improves Performance in Multi-rate
WLANs", USENIX ATC 2004) require of a fair allocation that a station
which sends and receives nothing takes no airtime from the others.  The
expected value is the same cell without that station, not earlier output
of this code.

Derivation.  An attached station with no traffic has an empty TID queue
and an empty uplink, so it never contends for the medium and never
enters Algorithm 3's new-station list: the scheduler only lists a
station when a packet for it arrives.  Under FIFO the shared driver
queue holds no frame for it either.  Nothing else in the cell sees the
station, so every other station's airtime share and throughput stay
where they were -- whatever the scheme.  The law is scheme-neutral; it
guards the sparse-station path (a station that is attached but silent)
from outside, not what separates Airtime from the baselines.

The bands are the validation matrix's, fixed before the run: each
share within ±0.05, each throughput within ±10%.  (On seed 1 both
schemes measure the two cells identical to the last bit: the idle
station draws no backoff, so not even the random stream moves.)
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import pytest

from repro.experiments.config import three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.experiments.workloads import saturating_udp_download
from repro.mac.ap import Scheme
from repro.phy.rates import PhyRate, mcs
from repro.validation.matrix import RATE_BAND, SHARE_BAND
BUSY = (0, 1, 2)


def _cell(rates: Sequence[PhyRate], scheme: Scheme
          ) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Airtime shares and goodput (Mbit/s) of the busy stations under
    saturating downstream UDP; any further station stays idle."""
    testbed = Testbed(list(rates), TestbedOptions(scheme=scheme, seed=1))
    saturating_udp_download(testbed, BUSY)
    window_us = testbed.run(duration_s=3.0, warmup_s=1.0)
    tracker = testbed.tracker
    return (tracker.airtime_shares(BUSY),
            {i: tracker.throughput_bps(i, window_us) / 1e6 for i in BUSY})


@pytest.mark.parametrize("scheme", [Scheme.AIRTIME, Scheme.FIFO])
def test_an_idle_station_costs_nothing_under_any_scheme(scheme):
    fig5 = three_station_rates()  # MCS 15, 15, 0
    shares, mbps = _cell(fig5, scheme)
    with_idle_shares, with_idle_mbps = _cell([*fig5, mcs(15)], scheme)
    for i in BUSY:
        assert abs(with_idle_shares[i] - shares[i]) <= SHARE_BAND, (
            i, shares, with_idle_shares)
        assert with_idle_mbps[i] == pytest.approx(
            mbps[i], rel=RATE_BAND), (i, mbps, with_idle_mbps)
