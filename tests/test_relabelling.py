"""The relabelling law: permuting the stations permutes their shares.

Nothing in Algorithm 3 (paper §3.2) or in the stock round robin depends
on a station's index: stations enter the deficit list, or the service
ring, in the order their packets arrive, and each is served by the same
rule.  So reversing the stations of the Fig. 5 cell, MCS (15, 15, 0)
against (0, 15, 15), must map each station's airtime share onto its
mirror's: station ``i`` of the first cell onto station ``2 - i`` of the
second.  A tie-break that favours a position in the deficit list or in
the TID round robin would show as a share that follows the index
instead of the rate.

The band is the validation matrix's, fixed before the run: each share
within ±0.05 of its mirror's.  The law is scheme-neutral, so it runs
under all four schemes.  Measured on seed 1, the largest share
difference is 0.019 under FIFO (whose shared driver buffer makes the
two fast stations' shares unequal in the first place), 0.0004 under
FQ-CoDel, 0.0025 under FQ-MAC and 0.0052 under Airtime.
"""

from __future__ import annotations

import pytest

from repro.mac.ap import ALL_SCHEMES
from repro.validation.matrix import SHARE_BAND, run_cell


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
def test_reversing_the_stations_reverses_their_shares(scheme):
    forward = run_cell((15, 15, 0), seed=1, scheme=scheme).airtime_shares
    reverse = run_cell((0, 15, 15), seed=1, scheme=scheme).airtime_shares
    for i in range(3):
        assert abs(forward[i] - reverse[2 - i]) <= SHARE_BAND, (
            i, forward, reverse)
