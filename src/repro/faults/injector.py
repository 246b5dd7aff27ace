"""The fault injector: turns a schedule into live impairments.

The injector composes three mechanisms onto a wired testbed (any number
of cells — stations are named by their global index):

* an **error-probability wrapper** around every medium's error model —
  the base model (uniform ``error_rate`` or per-station channels) is
  combined with whatever impairments are active at query time as
  independent loss processes: ``1 - Π(1 - pᵢ)``, clamped to 0.98 so a
  retry chain always has a way out;
* **window-edge events** on the simulator that activate/deactivate
  burst-loss chains, interference windows, and rate crashes — these are
  scheduled unconditionally (not only when tracing), so enabling
  telemetry never perturbs event ordering;
* **churn events** that call the detach/re-attach entry points of the
  AP serving the station at that moment.

Randomness comes from per-fault streams of the testbed's
:class:`~repro.sim.rng.RngFactory` (``faults.burst.<n>``), so adding
fault injection does not perturb the medium/traffic streams, and two
impaired runs with the same seed replay identically.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.faults.gilbert import GilbertElliott
from repro.faults.schedule import BurstLoss, Churn, FaultSchedule, RateCrash
from repro.mac.aggregation import Aggregate
from repro.phy.channel import StationChannel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.topology.campus import CampusTestbed

__all__ = ["FaultInjector", "MAX_ERROR_PROB"]

#: Ceiling on the composed error probability — losses may be brutal but
#: never certain, so retries can always eventually drain a queue.
MAX_ERROR_PROB = 0.98


class FaultInjector:
    """Installs a :class:`FaultSchedule` onto a testbed."""

    def __init__(
        self,
        testbed: "CampusTestbed",
        schedule: FaultSchedule,
        trace_channel=None,
    ) -> None:
        self._testbed = testbed
        self._schedule = schedule
        self._trace = trace_channel

        #: Station -> active Gilbert–Elliott chains (usually 0 or 1).
        self._active_ge: Dict[int, List[GilbertElliott]] = {}
        #: Error probabilities of the interference windows currently open.
        self._active_interference: List[float] = []
        #: Station -> crashed-channel model while a rate crash is active.
        self._active_crash: Dict[int, StationChannel] = {}
        #: (fault, chain) pairs, built once at install time.
        self._chains: List[Tuple[BurstLoss, GilbertElliott]] = []

        # Diagnostics for experiment summaries.
        self.detaches = 0
        self.reattaches = 0
        self.flushed_packets = 0

    # ------------------------------------------------------------------
    def install(self) -> "FaultInjector":
        """Wrap the error models and schedule every fault's edge events."""
        testbed = self._testbed
        sim = testbed.sim
        for medium in testbed.mediums.values():
            medium.error_prob_fn = self._impaired(
                medium.error_prob_fn, medium.error_rate
            )

        for i, fault in enumerate(self._schedule.burst_loss):
            chain = GilbertElliott(
                testbed.rng.stream(f"faults.burst.{i}"),
                good_error=fault.good_error,
                bad_error=fault.bad_error,
                mean_good_us=sim.sec(fault.mean_good_s),
                mean_bad_us=sim.sec(fault.mean_bad_s),
                start_us=sim.sec(fault.start_s),
            )
            self._chains.append((fault, chain))
            sim.schedule_at(
                sim.sec(fault.start_s),
                lambda f=fault, c=chain: self._burst_begin(f, c),
            )
            sim.schedule_at(
                sim.sec(fault.end_s),
                lambda f=fault, c=chain: self._burst_end(f, c),
            )
        for fault in self._schedule.interference:
            sim.schedule_at(
                sim.sec(fault.start_s),
                lambda f=fault: self._interference_begin(f),
            )
            sim.schedule_at(
                sim.sec(fault.end_s),
                lambda f=fault: self._interference_end(f),
            )
        for fault in self._schedule.rate_crash:
            sim.schedule_at(
                sim.sec(fault.start_s), lambda f=fault: self._crash_begin(f)
            )
            sim.schedule_at(
                sim.sec(fault.end_s), lambda f=fault: self._crash_end(f)
            )
        for fault in self._schedule.churn:
            sim.schedule_at(
                sim.sec(fault.detach_s), lambda f=fault: self._detach(f)
            )
            if fault.reattach_s is not None:
                sim.schedule_at(
                    sim.sec(fault.reattach_s),
                    lambda f=fault: self._reattach(f),
                )
        return self

    # ------------------------------------------------------------------
    # Composed error model
    # ------------------------------------------------------------------
    def _impaired(
        self, base_fn: Optional[Callable], base_rate: float
    ) -> Callable[[Aggregate], float]:
        """One medium's own error model composed with the active faults."""
        def error_prob(agg: Aggregate) -> float:
            prob = base_fn(agg) if base_fn is not None else base_rate
            chains = self._active_ge.get(agg.station)
            if chains:
                now = self._testbed.sim.now
                for chain in chains:
                    prob = _combine(prob, chain.error_prob(now))
            for extra in self._active_interference:
                prob = _combine(prob, extra)
            crash = self._active_crash.get(agg.station)
            if crash is not None:
                prob = _combine(prob, crash.error_prob(agg.rate))
            return min(prob, MAX_ERROR_PROB)

        return error_prob

    # ------------------------------------------------------------------
    # Window edges
    # ------------------------------------------------------------------
    def _emit(self, event: str, **fields) -> None:
        if self._trace is not None:
            self._trace.emit(self._testbed.sim.now, event, **fields)

    def _burst_begin(self, fault: BurstLoss, chain: GilbertElliott) -> None:
        self._active_ge.setdefault(fault.station, []).append(chain)
        self._emit("burst_begin", station=fault.station,
                   bad_error=fault.bad_error)

    def _burst_end(self, fault: BurstLoss, chain: GilbertElliott) -> None:
        chains = self._active_ge.get(fault.station, [])
        if chain in chains:
            chains.remove(chain)
        self._emit("burst_end", station=fault.station, bursts=chain.bursts)

    def _interference_begin(self, fault) -> None:
        self._active_interference.append(fault.error_prob)
        self._emit("interference_begin", error_prob=fault.error_prob)

    def _interference_end(self, fault) -> None:
        self._active_interference.remove(fault.error_prob)
        self._emit("interference_end", error_prob=fault.error_prob)

    def _crash_begin(self, fault: RateCrash) -> None:
        self._active_crash[fault.station] = StationChannel(
            max_reliable_mcs=fault.max_reliable_mcs,
            base_error=0.0,
            step_error=fault.step_error,
        )
        self._emit("rate_crash", station=fault.station,
                   max_mcs=fault.max_reliable_mcs)

    def _crash_end(self, fault: RateCrash) -> None:
        self._active_crash.pop(fault.station, None)
        self._emit("rate_recover", station=fault.station)

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def _serving_ap(self, station: int):
        testbed = self._testbed
        return testbed.bss[testbed.serving[station]].ap

    def _detach(self, fault: Churn) -> None:
        ap = self._serving_ap(fault.station)
        flushed = ap.detach_station(fault.station, fault.mode)
        self.detaches += 1
        self.flushed_packets += flushed
        self._emit("detach", station=fault.station, mode=fault.mode,
                   flushed=flushed)

    def _reattach(self, fault: Churn) -> None:
        self._serving_ap(fault.station).reattach_station(fault.station)
        self.reattaches += 1
        self._emit("reattach", station=fault.station)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, int]:
        """Realised-fault counters for experiment result rows."""
        return {
            "bursts": sum(chain.bursts for _, chain in self._chains),
            "detaches": self.detaches,
            "reattaches": self.reattaches,
            "flushed_packets": self.flushed_packets,
        }


def _combine(p: float, q: float) -> float:
    """Combine two independent loss probabilities."""
    return 1.0 - (1.0 - p) * (1.0 - q)
