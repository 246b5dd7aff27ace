"""Simulation invariant watchdogs.

Fault injection is only trustworthy if the simulator stays honest while
being abused, so the fault layer ships its own auditors:

* :func:`audit_conservation` — packet conservation at teardown: every
  downlink packet the APs accepted is either delivered, accounted by the
  drop funnel, or still resident somewhere (queues, holdback slots,
  hardware queue, on the air).  A deficit means packets evaporated; a
  surplus means double counting.  :func:`count_conservation` is the
  counting rule itself, which the testbed also applies per channel shard.
* :class:`StallDetector` — a periodic in-simulation check that each
  medium is making progress whenever its APs hold backlog.  Complements
  the event engine's same-timestamp livelock guard
  (:meth:`repro.sim.engine.Simulator.set_stall_guard`), which catches
  zero-delay loops the sim-time detector can never observe.

In ``--strict`` mode violations raise :class:`InvariantViolation`;
otherwise they are recorded (and traced) for the report to surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, TYPE_CHECKING

from repro.sim.engine import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.topology.campus import CampusTestbed

__all__ = [
    "InvariantViolation",
    "ConservationReport",
    "audit_conservation",
    "count_conservation",
    "StallDetector",
]

#: Funnel layers that account *downlink* packets (uplink losses report
#: through layer ``client`` and are excluded from the downlink audit).
_DOWNLINK_LAYERS = ("qdisc", "mac", "hw")


class InvariantViolation(RuntimeError):
    """A simulation invariant failed (strict mode turns these fatal)."""


@dataclass(frozen=True)
class ConservationReport:
    """Result of one packet-conservation audit."""

    enqueued: int
    delivered: int
    dropped: int
    resident: int

    @property
    def balance(self) -> int:
        """``enqueued - (delivered + dropped + resident)``; 0 when exact."""
        return self.enqueued - (self.delivered + self.dropped + self.resident)

    @property
    def ok(self) -> bool:
        return self.balance == 0

    def describe(self) -> str:
        return (
            f"downlink conservation: enqueued={self.enqueued} "
            f"delivered={self.delivered} dropped={self.dropped} "
            f"resident={self.resident} balance={self.balance}"
        )


def count_conservation(aps: Iterable, stations: Iterable,
                       mediums: Iterable) -> ConservationReport:
    """The one counting rule, over any set of cells closed under roaming:
    what ``aps`` accepted against what ``stations`` received, the drop
    funnels booked, and what still sits in the APs or on ``mediums``."""
    aps = list(aps)
    return ConservationReport(
        enqueued=sum(ap.downlink_enqueued for ap in aps),
        delivered=sum(st.rx_packets for st in stations),
        dropped=sum(
            count
            for ap in aps
            for layer in _DOWNLINK_LAYERS
            for count in ap.drops.counts.get(layer, {}).values()
        ),
        resident=(
            sum(ap.resident_packets() for ap in aps)
            + sum(m.inflight_downlink_packets() for m in mediums)
        ),
    )


def audit_conservation(testbed: "CampusTestbed") -> ConservationReport:
    """Audit downlink packet conservation over the whole testbed, for a
    finished (or paused) run."""
    return count_conservation(
        (stack.ap for stack in testbed.bss.values()),
        testbed.stations.values(),
        testbed.mediums.values(),
    )


class StallDetector:
    """Periodic no-progress check on every channel.

    Every ``interval_s`` of simulated time: if the APs on a channel hold
    resident downlink packets but that medium's cumulative busy time has
    not moved since the previous check, the run is stalled — backlog
    exists that nothing is draining.  Violations are recorded in
    :attr:`violations` (and optionally traced); in strict mode the first
    one raises.
    """

    def __init__(
        self,
        testbed: "CampusTestbed",
        interval_s: float = 1.0,
        strict: bool = False,
        trace_channel=None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self._testbed = testbed
        self._strict = strict
        self._trace = trace_channel
        #: Channel -> medium busy time at the previous check.
        self._last_busy_us: Dict[int, float] = {}
        self.violations: List[str] = []
        self._timer = PeriodicTimer(
            testbed.sim, testbed.sim.sec(interval_s), self._check
        )

    def start(self) -> "StallDetector":
        self._timer.start()
        return self

    def stop(self) -> None:
        self._timer.stop()

    def _check(self) -> None:
        testbed = self._testbed
        for channel, medium in testbed.mediums.items():
            busy = medium.busy_time_us
            stalled = self._last_busy_us.get(channel) == busy
            self._last_busy_us[channel] = busy
            if not stalled:
                continue
            resident = sum(
                stack.ap.resident_packets()
                for stack in testbed.bss.values()
                if stack.channel == channel
            )
            if resident == 0:
                continue
            message = (
                f"stall at t={testbed.sim.now_sec:.3f}s: {resident} packets "
                f"resident but the medium of channel {channel} transmitted "
                "nothing in the last check interval"
            )
            self.violations.append(message)
            if self._trace is not None:
                self._trace.emit(
                    testbed.sim.now, "stall", channel=channel,
                    resident=resident, busy_us=busy,
                )
            if self._strict:
                raise InvariantViolation(message)
