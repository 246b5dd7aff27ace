"""Per-station airtime ledger with an analytical-model audit.

The paper's airtime argument (§2.2.1, Table 1) is an accounting claim:
each station's share of the channel follows eqs. (1)–(5) from its
aggregation level, packet size and PHY rate.  This module keeps the
simulator honest about it with double-entry bookkeeping:

* the **medium book** is the run's one airtime account, the testbed's
  :class:`~repro.analysis.stats.AirtimeTracker`, which splits every
  transmission into per-station TX, retry and contention time
  (downlink and uplink separately);
* the **AP book** — :meth:`AccessPoint.txop_complete` /
  :meth:`~repro.mac.ap.AccessPoint.receive_uplink` charge the same
  completions from the AP's side (the AP is built with the ledger).

At teardown :meth:`AirtimeLedger.audit` cross-checks the two books
(they see the identical floats, so they must agree exactly), checks
busy-time conservation against the medium's own counter over the
measurement window, and compares the measured airtime shares against
:func:`repro.model.analytical.predict` fed with the *measured* mean
aggregation — the same validation loop the paper ran between its
in-kernel accounting and monitor-mode captures.  With ``--strict`` a
failed audit raises :class:`~repro.faults.watchdog.InvariantViolation`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.analysis.stats import AirtimeTracker

__all__ = ["AirtimeLedger", "LedgerAudit"]

#: Absolute float tolerance for the AP-book vs medium-book cross-check.
#: Both books add the identical floats in the identical order, so any
#: drift beyond rounding noise is a real accounting bug.
_BOOKS_EPS_US = 1e-6
#: Relative tolerance for busy-time conservation vs the medium counter.
_BUSY_REL_EPS = 1e-9
#: The account's tables each ``to_dict`` row reports.
_ROW_FIELDS = ("tx_us", "retry_us", "contention_us", "rx_us", "rx_retry_us",
               "rx_contention_us", "aggs", "agg_packets",
               "delivered_packets", "delivered_bytes")


def _downlink_us(row: Mapping[str, Any]) -> float:
    return row["tx_us"] + row["retry_us"] + row["contention_us"]


def _booked_us(row: Mapping[str, Any]) -> float:
    """Total booked airtime, summed from the split (not the account's
    own ``airtime_us``, whose float sum runs in another order)."""
    return _downlink_us(row) + (
        row["rx_us"] + row["rx_retry_us"] + row["rx_contention_us"])


@dataclass
class LedgerAudit:
    """The teardown verdict: books, conservation, and model agreement."""

    ok: bool
    tolerance: float
    #: Per-station rows: measured vs model share and the inputs used.
    rows: List[Dict[str, Any]] = field(default_factory=list)
    worst_delta: float = 0.0
    books_ok: bool = True
    books_errors: List[str] = field(default_factory=list)
    conservation_ok: bool = True
    conservation_detail: str = ""
    #: True when the model comparison actually ran (enough data).
    model_checked: bool = False

    def describe(self) -> str:
        lines = [
            f"airtime ledger audit: {'ok' if self.ok else 'FAILED'} "
            f"(tolerance {self.tolerance:.1%})"
        ]
        if self.rows:
            lines.append(
                f"{'station':>8} {'measured':>9} {'model':>9} {'delta':>8} "
                f"{'mean_agg':>9}"
            )
            for row in self.rows:
                lines.append(
                    f"{row['station']:>8} {row['measured_share']:>9.1%} "
                    f"{row['model_share']:>9.1%} {row['delta']:>8.1%} "
                    f"{row['mean_aggregation']:>9.2f}"
                )
        if not self.books_ok:
            lines.append("double-entry mismatch:")
            lines.extend(f"  {err}" for err in self.books_errors)
        if self.conservation_detail:
            lines.append(self.conservation_detail)
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class AirtimeLedger:
    """The AP's airtime book for one run, audited against the account."""

    def __init__(self) -> None:
        #: The medium book; the testbed sets its tracker on the one cell
        #: it audits, multi-cell runs leave it empty.
        self.account = AirtimeTracker()
        #: station -> the AP's own charges (µs): TX attempts, RX successes.
        self.ap_tx_us: Dict[int, float] = defaultdict(float)
        self.ap_rx_us: Dict[int, float] = defaultdict(float)

    def reset(self) -> None:
        """Start the measurement window (warm-up reset)."""
        self.ap_tx_us.clear()
        self.ap_rx_us.clear()

    def charge_ap_tx(self, station: int, duration_us: float,
                     success: bool) -> None:
        self.ap_tx_us[station] += duration_us

    def charge_ap_rx(self, station: int, duration_us: float) -> None:
        self.ap_rx_us[station] += duration_us

    def _rows(self) -> Dict[int, Dict[str, Any]]:
        """Station -> its medium-book entries, in first-transmission order."""
        account = self.account
        return {station: account.station(station)
                for station in account.airtime_us}

    def to_dict(self) -> Dict[str, Any]:
        rows = self._rows()
        booked = {station: _booked_us(row) for station, row in rows.items()}
        total = sum(booked.values())
        return {
            str(station): {
                **{name: rows[station][name] for name in _ROW_FIELDS},
                "total_airtime_us": booked[station],
                "share": booked[station] / total if total > 0 else 0.0,
            }
            for station in sorted(rows)
        }

    # ------------------------------------------------------------------
    # Teardown audit
    # ------------------------------------------------------------------
    def cross_check(self) -> List[str]:
        """Compare the AP book against the medium book (must be exact)."""
        errors: List[str] = []
        account = self.account
        for station in sorted({*account.airtime_us, *self.ap_tx_us,
                               *self.ap_rx_us}):
            medium_tx = (account.tx_us.get(station, 0.0)
                         + account.retry_us.get(station, 0.0))
            medium_rx = account.rx_us.get(station, 0.0)
            ap_tx = self.ap_tx_us.get(station, 0.0)
            ap_rx = self.ap_rx_us.get(station, 0.0)
            if abs(ap_tx - medium_tx) > _BOOKS_EPS_US:
                errors.append(
                    f"station {station}: AP tx book {ap_tx:.3f}µs "
                    f"!= medium {medium_tx:.3f}µs"
                )
            if abs(ap_rx - medium_rx) > _BOOKS_EPS_US:
                errors.append(
                    f"station {station}: AP rx book {ap_rx:.3f}µs "
                    f"!= medium {medium_rx:.3f}µs"
                )
        return errors

    def audit(
        self,
        rates: Mapping[int, Any],
        airtime_fairness: bool,
        tolerance: float = 0.05,
        busy_us: Optional[float] = None,
        collisions: int = 0,
    ) -> LedgerAudit:
        """Audit the ledger against §2.2.1 and the conservation laws.

        ``rates`` maps station -> :class:`~repro.phy.rates.PhyRate` (the
        pinned testbed rates); ``busy_us`` and ``collisions`` are the
        medium's counts over the measurement window.  The model
        comparison runs over stations that actually carried downlink
        traffic, feeding it the measured mean aggregation and payload
        size, exactly as Table 1 does.
        """
        from repro.model.analytical import StationModel, predict

        audit = LedgerAudit(ok=True, tolerance=tolerance)

        audit.books_errors = self.cross_check()
        audit.books_ok = not audit.books_errors
        rows = self._rows()

        # Busy-time conservation: everything the ledger booked must equal
        # the channel occupancy the medium itself counted.  Collisions
        # are excluded — the medium adds a collision's occupancy once but
        # emits one record per participant.
        if busy_us is not None:
            booked = sum(_booked_us(row) for row in rows.values())
            if collisions == 0:
                scale = max(abs(busy_us), 1.0)
                audit.conservation_ok = (
                    abs(booked - busy_us) <= _BUSY_REL_EPS * scale + 1e-6
                )
                audit.conservation_detail = (
                    f"busy-time conservation: booked {booked / 1e3:.3f}ms "
                    f"vs medium {busy_us / 1e3:.3f}ms "
                    f"({'ok' if audit.conservation_ok else 'VIOLATED'})"
                )
            else:
                audit.conservation_detail = (
                    f"busy-time conservation: skipped "
                    f"({collisions} collisions double-book per participant)"
                )

        # Model comparison (measured shares vs eqs. 1–5).
        downlink = {
            station: row for station, row in rows.items()
            if row["aggs"] > 0 and station in rates
        }
        if len(downlink) >= 2:
            audit.model_checked = True
            models = []
            for station in sorted(downlink):
                row = downlink[station]
                payload = (row["delivered_bytes"] / row["delivered_packets"]
                           if row["delivered_packets"] else 0.0)
                models.append(StationModel(
                    aggregation=max(1.0, self.account.mean_aggregation(station)),
                    payload_bytes=int(round(payload)) or 1,
                    rate=rates[station],
                    label=str(station),
                ))
            predictions = predict(models, airtime_fairness=airtime_fairness)
            total_down = sum(_downlink_us(row) for row in downlink.values())
            for model, prediction in zip(models, predictions):
                station = int(model.label)
                measured = (
                    _downlink_us(downlink[station]) / total_down
                    if total_down > 0 else 0.0
                )
                delta = abs(measured - prediction.airtime_share)
                audit.rows.append({
                    "station": station,
                    "measured_share": measured,
                    "model_share": prediction.airtime_share,
                    "delta": delta,
                    "mean_aggregation": self.account.mean_aggregation(station),
                    "payload_bytes": model.payload_bytes,
                })
                if delta > audit.worst_delta:
                    audit.worst_delta = delta

        audit.ok = (
            audit.books_ok
            and audit.conservation_ok
            and audit.worst_delta <= tolerance
        )
        return audit
