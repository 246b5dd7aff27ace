"""The scheme seam: a scheme is a ``SCHEMES`` row — here a fifth one,
assembled in this file only, out of parts no shipped scheme combines.
"""

from __future__ import annotations

import pytest

from repro.core.airtime import AirtimeScheduler
from repro.experiments import workloads
from repro.experiments.config import three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.faults import count_conservation
from repro.mac.ap import SCHEMES, SchemeDescriptor, airtime_drr
from repro.mac.driver import QdiscStack
from repro.qdisc.fq_codel_qdisc import FqCodelQdisc
from repro.telemetry import TelemetryConfig

# ----------------------------------------------------------------------
# The fifth scheme: the fq_codel qdisc over the legacy driver, served by
# the airtime scheduler.  Nothing under src/ knows this row exists.
# ----------------------------------------------------------------------
FIFTH = "fq_codel+airtime"
FIFTH_ROW = SchemeDescriptor(QdiscStack.fq_codel, airtime_drr,
                             airtime_fair=True)


@pytest.fixture
def fifth(monkeypatch):
    monkeypatch.setitem(SCHEMES, FIFTH, FIFTH_ROW)
    return FIFTH


def test_fifth_scheme_runs_conserved_and_audited(fifth):
    testbed = Testbed(three_station_rates(), TestbedOptions(
        scheme=fifth, seed=1, telemetry=TelemetryConfig(ledger=True)))
    workloads.saturating_udp_download(testbed)
    testbed.run(2.0, 1.0)

    ap = testbed.ap
    assert type(ap.stack) is QdiscStack
    assert type(ap.stack.qdisc) is FqCodelQdisc
    assert type(ap.scheduler) is AirtimeScheduler
    assert count_conservation([ap], testbed.stations.values(),
                              [testbed.medium]).ok
    # The audit ran against the row's ``airtime_fair``: equal shares.
    audit = testbed.telemetry.ledger_audit
    assert audit.model_checked
    assert [row["model_share"] for row in audit.rows] == \
        [pytest.approx(1 / 3)] * 3
    # ... which this scheme does not deliver, and that is the paper's
    # point (Section 3): the slow station still owns the driver buffer,
    # so the airtime scheduler has nothing to schedule for the fast
    # ones.  Measured on this tree, seeds 1 and 2: 0.793 of the
    # airtime, between FQ-CoDel's 0.849 and Airtime's 0.329.
    slow = audit.rows[2]
    assert slow["station"] == 2
    assert slow["measured_share"] == pytest.approx(0.793, abs=0.02)
    assert not audit.ok
