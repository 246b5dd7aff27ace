"""Airtime-ledger accounting and the analytical-model audit.

Unit tests drive :class:`AirtimeLedger` and its medium book, the
:class:`~repro.analysis.stats.AirtimeTracker`, with synthetic
transmissions; integration tests run the Table-1 scenario (saturating UDP
download) per scheme and require the teardown audit to pass — books
exact, busy time conserved, measured shares within tolerance of the
§2.2.1 model fed with the measured aggregation.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import three_station_rates
from repro.experiments.testbed import Testbed, TestbedOptions
from repro.experiments.workloads import saturating_udp_download
from repro.faults import InvariantViolation
from repro.mac.ap import ALL_SCHEMES, Scheme
from repro.telemetry import AirtimeLedger, TelemetryConfig


_RUNS: dict = {}


def _ledgered_run(scheme):
    """One Table-1-scenario run per scheme with the live ledger."""
    if scheme not in _RUNS:
        testbed = Testbed(
            three_station_rates(),
            TestbedOptions(
                scheme=scheme,
                telemetry=TelemetryConfig(ledger=True),
            ),
        )
        saturating_udp_download(testbed)
        testbed.run(duration_s=2.0, warmup_s=1.0)
        _RUNS[scheme] = testbed
    return _RUNS[scheme]


def _book(ledger, station=0, airtime_us=100.0, tx_us=80.0, down=True,
          ok=True, n_pkts=4, n_bytes=5000):
    """Book one transmission in the ledger's medium book, the account."""
    account = ledger.account
    account.on_tx(0.0, station, airtime_us, tx_us, down, n_pkts, n_bytes, ok)
    return account


# ----------------------------------------------------------------------
# Unit: bookkeeping (the medium book is the run's AirtimeTracker)
# ----------------------------------------------------------------------
class TestBookkeeping:
    def test_successful_downlink_splits_tx_and_contention(self):
        ledger = AirtimeLedger()
        book = _book(ledger)
        assert book.tx_us[0] == 80.0
        assert book.contention_us[0] == 20.0
        assert book.retry_us.get(0, 0.0) == 0.0
        assert book.delivered_packets[0] == 4
        assert book.delivered_bytes[0] == 5000
        assert ledger.to_dict()["0"]["total_airtime_us"] == 100.0

    def test_failed_downlink_books_retry_time(self):
        ledger = AirtimeLedger()
        book = _book(ledger, ok=False)
        assert book.retry_us[0] == 80.0
        assert book.tx_us.get(0, 0.0) == 0.0
        assert book.delivered_packets.get(0, 0) == 0
        assert book.aggs[0] == 1  # the attempt still counts for mean_agg

    def test_uplink_books_rx_side(self):
        ledger = AirtimeLedger()
        book = _book(ledger, down=False)
        assert book.rx_us[0] == 80.0
        assert book.rx_contention_us[0] == 20.0
        assert book.downlink_airtime_us.get(0, 0.0) == 0.0
        assert book.uplink_airtime_us[0] == 100.0

    def test_shares_sum_to_one(self):
        ledger = AirtimeLedger()
        _book(ledger, station=0, airtime_us=300.0)
        _book(ledger, station=1, airtime_us=100.0)
        shares = {station: row["share"]
                  for station, row in ledger.to_dict().items()}
        assert shares["0"] == pytest.approx(0.75)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_reset_clears_books(self):
        ledger = AirtimeLedger()
        _book(ledger)
        ledger.charge_ap_tx(0, 80.0, success=True)
        ledger.charge_ap_rx(1, 80.0)
        ledger.reset()
        assert ledger.ap_tx_us == {} and ledger.ap_rx_us == {}

    def test_cross_check_flags_divergent_books(self):
        ledger = AirtimeLedger()
        _book(ledger)
        ledger.charge_ap_tx(0, 80.0, success=True)
        assert ledger.cross_check() == []
        ledger.ap_tx_us[0] += 1.0
        errors = ledger.cross_check()
        assert errors and "AP tx book" in errors[0]

    def test_mean_aggregation_counts_all_attempts(self):
        ledger = AirtimeLedger()
        _book(ledger, n_pkts=10)
        book = _book(ledger, n_pkts=2, ok=False)
        assert book.mean_aggregation(0) == 6.0


# ----------------------------------------------------------------------
# Integration: the Table-1 scenario audit
# ----------------------------------------------------------------------
class TestLedgerAudit:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES,
                             ids=lambda s: s.value)
    def test_audit_passes_within_tolerance(self, scheme):
        """Acceptance criterion: the live ledger matches the analytical
        model within 5% airtime share on the Table-1 scenario."""
        testbed = _ledgered_run(scheme)
        audit = testbed.telemetry.ledger_audit
        assert audit is not None
        assert audit.model_checked
        assert audit.books_ok, audit.books_errors
        assert audit.conservation_ok, audit.conservation_detail
        assert audit.worst_delta <= 0.05, audit.describe()
        assert audit.ok

    def test_ap_and_medium_books_agree_exactly(self):
        testbed = _ledgered_run(Scheme.AIRTIME)
        assert testbed.telemetry.ledger.cross_check() == []

    def test_medium_book_is_the_testbed_account(self):
        testbed = _ledgered_run(Scheme.FIFO)
        assert testbed.telemetry.ledger.account is testbed.tracker

    def test_summary_carries_ledger_and_audit(self):
        testbed = _ledgered_run(Scheme.FQ_MAC)
        summary = testbed.finish_telemetry()
        stations = summary["ledger"]["stations"]
        assert set(stations) == {"0", "1", "2"}
        assert sum(s["share"] for s in stations.values()) == pytest.approx(1.0)
        assert summary["ledger"]["audit"]["ok"]

    def test_audit_describe_renders_rows(self):
        testbed = _ledgered_run(Scheme.AIRTIME)
        text = testbed.telemetry.ledger_audit.describe()
        assert "airtime ledger audit: ok" in text
        assert "station" in text

    def test_strict_mode_raises_on_divergence(self):
        """--strict + an impossibly tight tolerance: the audit's model
        divergence must abort the run with InvariantViolation."""
        testbed = Testbed(
            three_station_rates(),
            TestbedOptions(
                scheme=Scheme.FIFO,
                strict=True,
                telemetry=TelemetryConfig(ledger=True,
                                          ledger_tolerance=1e-9),
            ),
        )
        saturating_udp_download(testbed)
        with pytest.raises(InvariantViolation, match="ledger audit"):
            testbed.run(duration_s=1.0, warmup_s=0.5)

    def test_audit_without_traffic_skips_model(self):
        ledger = AirtimeLedger()
        audit = ledger.audit(rates={}, airtime_fairness=False)
        assert audit.ok
        assert not audit.model_checked
