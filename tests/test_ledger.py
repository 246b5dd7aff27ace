"""Airtime-ledger accounting and the analytical-model audit.

Unit tests drive :class:`AirtimeLedger` with synthetic transmission
records; integration tests run the Table-1 scenario (saturating UDP
download) per scheme and require the teardown audit to pass — books
exact, busy time conserved, measured shares within tolerance of the
§2.2.1 model fed with the measured aggregation.
"""

from __future__ import annotations

from types import SimpleNamespace

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


def _tx_record(station=0, airtime_us=100.0, tx_time_us=80.0, downlink=True,
               success=True, n_packets=4, payload_bytes=5000):
    return SimpleNamespace(
        station=station, airtime_us=airtime_us, tx_time_us=tx_time_us,
        downlink=downlink, success=success, n_packets=n_packets,
        payload_bytes=payload_bytes,
    )


# ----------------------------------------------------------------------
# Unit: bookkeeping
# ----------------------------------------------------------------------
class TestBookkeeping:
    def test_successful_downlink_splits_tx_and_contention(self):
        ledger = AirtimeLedger()
        ledger.on_transmission(_tx_record())
        book = ledger.book(0)
        assert book.tx_us == 80.0
        assert book.contention_us == 20.0
        assert book.retry_us == 0.0
        assert book.delivered_packets == 4
        assert book.delivered_bytes == 5000
        assert book.total_airtime_us == 100.0

    def test_failed_downlink_books_retry_time(self):
        ledger = AirtimeLedger()
        ledger.on_transmission(_tx_record(success=False))
        book = ledger.book(0)
        assert book.retry_us == 80.0
        assert book.tx_us == 0.0
        assert book.delivered_packets == 0
        assert book.aggs == 1  # the attempt still counts for mean_agg

    def test_uplink_books_rx_side(self):
        ledger = AirtimeLedger()
        ledger.on_transmission(_tx_record(downlink=False))
        book = ledger.book(0)
        assert book.rx_us == 80.0
        assert book.rx_contention_us == 20.0
        assert book.downlink_airtime_us == 0.0
        assert book.uplink_airtime_us == 100.0

    def test_shares_sum_to_one(self):
        ledger = AirtimeLedger()
        ledger.on_transmission(_tx_record(station=0, airtime_us=300.0))
        ledger.on_transmission(_tx_record(station=1, airtime_us=100.0))
        shares = ledger.shares()
        assert shares[0] == pytest.approx(0.75)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_reset_clears_books_and_sets_baselines(self):
        ledger = AirtimeLedger()
        ledger.on_transmission(_tx_record())
        ledger.reset(busy_baseline_us=123.0, collision_baseline=2)
        assert ledger.entries == {}
        assert ledger.busy_baseline_us == 123.0
        assert ledger.collision_baseline == 2

    def test_cross_check_flags_divergent_books(self):
        ledger = AirtimeLedger()
        ledger.on_transmission(_tx_record())
        ledger.charge_ap_tx(0, 80.0, success=True)
        assert ledger.cross_check() == []
        ledger.book(0).ap_tx_us += 1.0
        errors = ledger.cross_check()
        assert errors and "AP tx book" in errors[0]

    def test_mean_aggregation_counts_all_attempts(self):
        ledger = AirtimeLedger()
        ledger.on_transmission(_tx_record(n_packets=10))
        ledger.on_transmission(_tx_record(n_packets=2, success=False))
        assert ledger.book(0).mean_aggregation == 6.0


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

    def test_ledger_windows_like_the_tracker(self):
        """After the warm-up reset the ledger's downlink airtime matches
        the AirtimeTracker's measurement-window accounting."""
        testbed = _ledgered_run(Scheme.FIFO)
        ledger = testbed.telemetry.ledger
        for station, airtime in testbed.tracker.airtime_us.items():
            entry = ledger.entries[station]
            assert entry.total_airtime_us == pytest.approx(airtime, rel=1e-9)

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
