"""The access point: where the paper's four configurations differ.

The evaluation (Section 4) compares four queue-management setups at the AP:

* **FIFO** — pfifo qdisc above the legacy driver's unmanaged per-TID
  FIFOs, round-robin station service (the stock kernel).
* **FQ-CoDel** — the fq_codel qdisc above the same unmanaged lower layers.
* **FQ-MAC** — the qdisc layer is bypassed; the integrated per-TID
  FQ-CoDel structure (Algorithms 1–2) replaces the driver queues, but
  station service is still round-robin.
* **AIRTIME** — FQ-MAC plus the deficit airtime scheduler (Algorithm 3).

Each is one row of :data:`SCHEMES`: a queue stack, a station scheduler
and what the ledger audit should expect.  :class:`AccessPoint` resolves
the row once and never asks which it got: it speaks one protocol to the
queues (:class:`SchemeDescriptor`) and implements what every scheme
shares — the VO ring, the two-deep hardware queue, the AP side of the
medium's contender protocol, airtime charging on TX *and* RX completion,
station churn, and forwarding uplink traffic to the wired network.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Deque, Dict, Optional, TYPE_CHECKING

from repro.core.airtime import DEFAULT_AIRTIME_QUANTUM_US, AirtimeScheduler
from repro.core.codel import PerStationCoDelTuner
from repro.core.drops import DropHook, DropReporter
from repro.core.mac_fq import IntegratedStack
from repro.core.packet import AccessCategory, Packet
from repro.core.station_rr import RoundRobinScheduler
from repro.mac.aggregation import Aggregate, AggregateBuilder, AggregationLimits
from repro.mac.driver import DEFAULT_DRIVER_LIMIT, QdiscStack
from repro.mac.hwqueue import HardwareQueue
from repro.mac.medium import Medium
from repro.mac.station import ClientStation
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.wire import Network

__all__ = ["AccessPoint", "Scheme", "ALL_SCHEMES", "APConfig",
           "SchemeDescriptor", "SCHEMES", "round_robin", "airtime_drr"]


class Scheme(Enum):
    """The four queue-management configurations of Section 4."""

    FIFO = "FIFO"
    FQ_CODEL = "FQ-CoDel"
    FQ_MAC = "FQ-MAC"
    AIRTIME = "Airtime fair FQ"


#: Every scheme, in the paper's order.
ALL_SCHEMES = tuple(Scheme)


@dataclass(frozen=True)
class SchemeDescriptor:
    """A scheme is a row: (queue stack, scheduler, airtime_fair).

    ``stack(sim, config, drops, codel_tuner)`` builds the queues under
    the AP, which asks of them only this (VO is an AC like any other):

    * ``enqueue_for(station, ac)`` / ``dequeue_for(station, ac)`` — the
      packet sink and the aggregate builder's packet source, bound once
      per key and then called with no stack frame in between;
    * ``station_backlog(station, ac)`` — what that source could yield;
    * ``refill(arrival=None)`` — move what can move toward the sources;
      returns the stations that gained schedulable packets, the packet
      just sunk for ``arrival`` included.  ``hungry`` (a plain attribute:
      a full buffer answers without a call) says whether anything could
      move; the AP also asks when ``arrival`` is on no scheduler list;
    * ``flush_station(station)`` — drop what is held for it through the
      funnel (reason ``detach``), now (returns how many) and until
      ``admit_station(station)``;
    * ``resident()``, ``samples(prefix, by_station=False)`` and
      ``set_trace(trace, now_fn=None, metrics=None)``.

    ``scheduler(config, has_backlog=, build_aggregate=, hw_full=)`` builds
    the station scheduler; ``airtime_fair``: whether the ledger audit
    holds the run to equal airtime shares.
    """

    stack: Callable
    scheduler: Callable
    airtime_fair: bool = False


def round_robin(config: "APConfig", **hooks) -> RoundRobinScheduler:
    return RoundRobinScheduler(**hooks)


def airtime_drr(config: "APConfig", **hooks) -> AirtimeScheduler:
    return AirtimeScheduler(
        quantum_us=config.airtime_quantum_us,
        sparse_enabled=config.sparse_enabled,
        account_rx=config.account_rx_airtime,
        **hooks,
    )


#: ``APConfig.scheme`` -> its row.  The AP looks the key up and nothing
#: else, so a further scheme is a further entry
#: (``tests/test_scheme_seam.py`` adds one out of existing parts).
SCHEMES: Dict[object, SchemeDescriptor] = {
    Scheme.FIFO: SchemeDescriptor(QdiscStack.pfifo, round_robin),
    Scheme.FQ_CODEL: SchemeDescriptor(QdiscStack.fq_codel, round_robin),
    Scheme.FQ_MAC: SchemeDescriptor(IntegratedStack, round_robin),
    Scheme.AIRTIME: SchemeDescriptor(IntegratedStack, airtime_drr,
                                     airtime_fair=True),
}


@dataclass
class APConfig:
    """Tunables for the access point (defaults match the paper/Linux)."""

    scheme: Scheme = Scheme.AIRTIME
    #: pfifo qdisc length (FIFO scheme).
    txqueuelen: int = 1000
    #: Shared legacy driver buffer (FIFO / FQ-CoDel schemes).
    driver_limit: int = DEFAULT_DRIVER_LIMIT
    #: Global packet limit of the integrated structure (FQ-MAC / Airtime).
    mac_fq_limit: int = 8192
    #: Airtime scheduler quantum (µs).
    airtime_quantum_us: float = DEFAULT_AIRTIME_QUANTUM_US
    #: Sparse-station optimisation (Section 3.2, ablated in Figure 8).
    sparse_enabled: bool = True
    #: Charge received (uplink) airtime to station deficits (Section 3.2).
    account_rx_airtime: bool = True
    #: Per-station CoDel low-rate tuning (Section 3.1.1).
    codel_lowrate_tuning: bool = True
    #: A-MPDU limits.
    aggregation: AggregationLimits = field(default_factory=AggregationLimits)
    #: Minstrel-style downlink rate control (extension; the paper's
    #: testbed pins rates).  When enabled, each station's transmission
    #: rate is learned from TX reports instead of being fixed, and the
    #: CoDel tuner follows the learned rate estimate (§3.1.1).
    rate_control: bool = False


class AccessPoint:
    """The Linux access point under one of the four configurations."""

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        config: Optional[APConfig] = None,
        bss: int = 0,
    ) -> None:
        self.sim = sim
        self.medium = medium
        self.config = config or APConfig()
        self.scheme = self.config.scheme
        #: BSS id of this cell; co-channel BSSes share the medium and are
        #: told apart by this id in transmission records.
        self.bss = bss

        self.stations: Dict[int, ClientStation] = {}
        self._rates: Dict[int, object] = {}

        self._builder = AggregateBuilder(self.config.aggregation)
        self._hw = HardwareQueue()
        self.network: Optional["Network"] = None

        self.codel_tuner = PerStationCoDelTuner(
            enabled=self.config.codel_lowrate_tuning
        )

        #: Unified drop funnel: every layer reports (pkt, layer, reason)
        #: here; experiment hooks and trace observers attach to it.
        self.drops = DropReporter()

        # --- the scheme's row: queue stack + station scheduler --------
        self.descriptor = SCHEMES[self.scheme]
        self.stack = self.descriptor.stack(
            sim, self.config, self.drops, self.codel_tuner)
        #: (station, ac) -> the stack's packet sink / the builder's packet
        #: source, bound at the first use of the key (which the stack can
        #: see: ``MacFqStructure._tids``) and kept across remove_station,
        #: as the stack's own queues are, for a station that roams back.
        self._sinks: Dict[tuple, Callable] = {}
        self._sources: Dict[tuple, Callable] = {}
        self.scheduler = self.descriptor.scheduler(
            self.config,
            has_backlog=self._station_has_backlog,
            build_aggregate=self._build_aggregate_for,
            hw_full=self._hw.be_full,
        )

        # --- VO fast path ---------------------------------------------
        # VO frames are scheduled round-robin per station ahead of all
        # other traffic (802.11e priority); they never aggregate.
        self._vo_ring: Deque[int] = deque()

        #: Stations currently detached (station churn); they are not
        #: scheduled and new downlink packets for them are dropped.
        self._detached: set[int] = set()

        #: Downlink packets accepted from the wire (conservation audit:
        #: enqueued == delivered + dropped + resident).
        self.downlink_enqueued = 0

        # Telemetry (None when disabled; see set_trace).
        self._em_built = self._em_tx_done = None
        #: Airtime ledger (None when disabled; see set_ledger).
        self._ledger = None

        #: Per-station Minstrel controllers (rate-control extension).
        self._rate_controllers: Dict[int, object] = {}
        #: Stations whose aggregate could not enter a full per-AC
        #: hardware queue; re-woken on the next fill pass.
        self._parked: set[int] = set()

        medium.attach(self, is_ap=True, bss=bss)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_station(self, station: ClientStation) -> None:
        if station.index in self.stations:
            raise ValueError(f"station {station.index} already attached")
        # A station roaming back clears the remove_station tombstone.
        self._detached.discard(station.index)
        self.stack.admit_station(station.index)
        self.stations[station.index] = station
        self._rates[station.index] = station.rate
        station.attach(self.medium, self)
        if self.config.rate_control and station.rate.ht:
            from repro.phy.rate_control import MinstrelRateController
            from repro.phy.rates import HT20_MCS_TABLE

            candidates = [HT20_MCS_TABLE[i] for i in range(8)]
            self._rate_controllers[station.index] = MinstrelRateController(
                candidates, self.medium.rng
            )
        self.codel_tuner.update_rate(station.index, station.rate.bps, self.sim.now)

    def set_network(self, network: "Network") -> None:
        self.network = network

    def rate_for(self, station: int):
        """Transmission rate toward ``station`` (learned or pinned)."""
        controller = self._rate_controllers.get(station)
        if controller is not None:
            return controller.current_rate()
        return self._rates[station]

    # ------------------------------------------------------------------
    # Drop reporting
    # ------------------------------------------------------------------
    def add_drop_hook(self, hook: DropHook) -> None:
        """Attach a legacy ``hook(pkt, reason)`` drop consumer."""
        self.drops.add_hook(hook)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def set_trace(self, telemetry) -> None:
        """Attach a :class:`repro.telemetry.Telemetry` context to the AP.

        Fans the trace bus and metrics registry out to every component of
        the scheme's stack; with ``telemetry=None`` (or both halves
        disabled) everything stays on its zero-cost path.
        """
        trace = telemetry.trace if telemetry is not None else None
        metrics = telemetry.metrics if telemetry is not None else None
        now_fn = lambda: self.sim.now

        agg_channel = trace.channel("agg") if trace is not None else None
        self._em_built = self._em_tx_done = None
        if agg_channel is not None:
            # Prebound shapes for the two per-transmission agg records.
            self._em_built = agg_channel.emitter("built", (
                ("station", "q"), ("ac", "s"), ("agg", "q"), ("pids", "o"),
                ("n_pkts", "q"), ("bytes", "q"), ("airtime_us", "d"),
            ))
            self._em_tx_done = agg_channel.emitter("tx_done", (
                ("station", "q"), ("ac", "s"), ("agg", "q"),
                ("n_pkts", "q"), ("ok", "b"), ("retries", "q"),
            ))
        self.stack.set_trace(trace, now_fn=now_fn, metrics=metrics)
        self.scheduler.set_trace(trace, now_fn=now_fn)
        self._hw.set_trace(trace, now_fn=now_fn)
        queue_channel = trace.channel("queue") if trace is not None else None
        if queue_channel is not None:
            em_drop = queue_channel.emitter("drop", (
                ("layer", "s"), ("reason", "s"), ("station", "o"),
                ("flow", "q"), ("pid", "q"),
            ))

            def on_drop(pkt: Packet, layer: str, reason: str) -> None:
                station = (pkt.dst_station if pkt.dst_station is not None
                           else pkt.src_station)
                em_drop(self.sim.now, layer, reason, station,
                        pkt.flow_id, pkt.pid)
            self.drops.add_observer(on_drop)
        if metrics is not None:
            def count_drop(pkt: Packet, layer: str, reason: str) -> None:
                metrics.counter(f"drops_{layer}_{reason}").inc()
            self.drops.add_observer(count_drop)

    def set_ledger(self, ledger) -> None:
        """Attach an :class:`repro.telemetry.ledger.AirtimeLedger`.

        The ledger's primary accumulation is a medium observer; the AP
        additionally charges its own TX/RX completions so the two books
        can be cross-checked (double-entry accounting).
        """
        self._ledger = ledger

    # ------------------------------------------------------------------
    # Downstream entry (from the wired network)
    # ------------------------------------------------------------------
    def send_downstream(self, pkt: Packet) -> None:
        """Accept a packet from the wire and queue it toward its station."""
        station = pkt.dst_station
        if station is None or station not in self.stations:
            raise ValueError(f"no such station: {station}")

        self.downlink_enqueued += 1
        if station in self._detached:
            # The station left the BSS: there is nowhere to queue toward.
            # Dropping through the funnel keeps conservation exact.
            self.drops.report(pkt, "mac", "detach")
            return

        ac = pkt.ac
        sinks = self._sinks
        try:
            sink = sinks[station, ac]
        except KeyError:
            sink = sinks[station, ac] = self.stack.enqueue_for(station, ac)
        sink(pkt)
        if ac is AccessCategory.VO:
            if station not in self._vo_ring:
                self._vo_ring.append(station)
        else:
            # ``_refill(station)`` inline, when it can matter: wake() is a
            # no-op for a listed station, a sated stack moves nothing.
            scheduler = self.scheduler
            listed = scheduler.listed
            if station not in listed or self.stack.hungry:
                detached = self._detached
                for woken in self.stack.refill(station):
                    if woken not in listed and woken not in detached:
                        scheduler.wake(woken)

        # The fill pass can only act on a VO frame, a parked station or
        # a free BE hardware slot (both schedulers loop "while the
        # hardware queue is not full"); txop_complete always runs it.
        if self._vo_ring or self._parked or not self._hw.be_full():
            self._fill_hw()
        # Inlined ``medium.notify_backlog()`` guard: mid-run the channel
        # is nearly always busy, and this path runs once per arrival.
        medium = self.medium
        if not medium._busy and not medium._arbitration_scheduled:
            medium.notify_backlog()

    def _refill(self, arrival: Optional[int] = None) -> None:
        """Wake the attached stations the stack just made schedulable."""
        scheduler = self.scheduler
        listed = scheduler.listed
        detached = self._detached
        for woken in self.stack.refill(arrival):
            if woken not in listed and woken not in detached:
                scheduler.wake(woken)

    # ------------------------------------------------------------------
    # Scheduler hooks (aggregating ACs: VI > BE > BK; VO has its own path)
    # ------------------------------------------------------------------
    #: Priority order of the ACs the station scheduler serves.
    _DATA_ACS = (AccessCategory.VI, AccessCategory.BE, AccessCategory.BK)

    def _backlogged_ac(self, station: int) -> Optional[AccessCategory]:
        """The highest-priority data AC with traffic for ``station``
        (the builder's holdback slot counts), or ``None``."""
        holdback = self._builder._holdback
        backlog = self.stack.station_backlog
        for ac in self._DATA_ACS:
            if (station, ac) in holdback or backlog(station, ac) > 0:
                return ac
        return None

    def _station_has_backlog(self, station: int) -> bool:
        return self._backlogged_ac(station) is not None

    def _source(self, station: int, ac: AccessCategory) -> Callable:
        key = (station, ac)
        try:
            return self._sources[key]
        except KeyError:
            source = self._sources[key] = self.stack.dequeue_for(*key)
            return source

    def _build_aggregate_for(self, station: int) -> int:
        """Build one aggregate for ``station`` into the hardware queue.

        Serves the highest-priority backlogged data AC.  If that AC's
        hardware queue is momentarily full, the station is parked and
        retried on the next fill pass.
        """
        ac = self._backlogged_ac(station)
        if ac is None:
            return 0
        if self._hw.full(ac):
            self._parked.add(station)
            return 0
        agg = self._builder.build(station, ac, self.rate_for(station),
                                  self._source(station, ac))
        if agg is None:
            return 0
        if self._em_built is not None:
            self._em_built(self.sim.now, station, ac.name, agg.seq,
                           [p.pid for p in agg.packets], agg.n_packets,
                           agg.payload_bytes, agg.duration_us)
        self._hw.push(agg)
        if self.stack.hungry:
            self._refill()
        return agg.n_packets

    # ------------------------------------------------------------------
    # Hardware queue management
    # ------------------------------------------------------------------
    def _fill_hw(self) -> None:
        # VO first: strict priority, one (unaggregated) frame per turn.
        # (Ring-first check: with no VO traffic — the common case — the
        # loop head costs one truthiness test, not a queue-depth probe.)
        while self._vo_ring and not self._hw.vo_full():
            station = self._vo_ring[0]
            pkt = self._source(station, AccessCategory.VO)()
            if pkt is None:
                self._vo_ring.popleft()
                continue
            agg = Aggregate(
                station=station,
                ac=AccessCategory.VO,
                rate=self.rate_for(station),
                packets=[pkt],
            )
            if self._em_built is not None:
                self._em_built(self.sim.now, station, AccessCategory.VO.name,
                               agg.seq, [pkt.pid], 1, agg.payload_bytes,
                               agg.duration_us)
            self._hw.push(agg)
            if self.stack.station_backlog(station, AccessCategory.VO) == 0:
                self._vo_ring.popleft()
            else:
                self._vo_ring.rotate(-1)
        # Re-wake stations parked on a full per-AC hardware queue.
        if self._parked:
            for station in list(self._parked):
                if (station not in self._detached
                        and self._station_has_backlog(station)):
                    self.scheduler.wake(station)
            self._parked.clear()
        # Then the data-AC scheduler (round-robin or airtime DRR).
        self.scheduler.schedule()

    # ------------------------------------------------------------------
    # Contender protocol (the AP side of the medium)
    # ------------------------------------------------------------------
    def has_frames_pending(self) -> bool:
        return self._hw.has_pending()

    def pending_access_category(self) -> Optional[AccessCategory]:
        return self._hw.head_ac()

    def start_txop(self) -> Optional[Aggregate]:
        return self._hw.pop()

    def txop_complete(self, agg: Aggregate, success: bool) -> None:
        # Charge the airtime actually spent transmitting (including this
        # retry attempt) to the destination station's deficit.
        self.scheduler.report_tx_airtime(agg.station, agg.duration_us)
        controller = self._rate_controllers.get(agg.station)
        if controller is not None:
            controller.report(agg.rate, success)
            self.codel_tuner.update_rate(
                agg.station, controller.best_rate().bps, self.sim.now
            )
        if self._ledger is not None:
            self._ledger.charge_ap_tx(agg.station, agg.duration_us, success)
        if self._em_tx_done is not None:
            self._em_tx_done(self.sim.now, agg.station, agg.ac.name, agg.seq,
                             agg.n_packets, success, agg.retries)
        if success:
            node = self.stations.get(agg.station)
            if node is not None:
                node.receive_from_ap(agg)
            else:
                # The station roamed away (remove_station) while this
                # frame was on the air: nobody is listening any more.
                for pkt in agg.packets:
                    self.drops.report(pkt, "hw", "detach")
        else:
            if not self._hw.requeue_retry(agg):
                # The funnel is the single source of truth for retry
                # losses; ``retry_drop_packets`` is derived from it (see
                # the property below), so the two can never diverge.
                for pkt in agg.packets:
                    self.drops.report(pkt, "hw", "retry")
        if (agg.station not in self._detached
                and self._station_has_backlog(agg.station)):
            self.scheduler.wake(agg.station)
        self._fill_hw()
        self.medium.notify_backlog()

    @property
    def retry_drop_packets(self) -> int:
        """Downlink packets lost to the retry limit (derived from the
        funnel, so it can never disagree with ``drops.counts``)."""
        return self.drops.counts.get("hw", {}).get("retry", 0)

    # ------------------------------------------------------------------
    # Station churn (fault injection)
    # ------------------------------------------------------------------
    def station_detached(self, station: int) -> bool:
        return station in self._detached

    def detach_station(self, station: int, mode: str = "flush") -> int:
        """Detach ``station`` from the BSS (churn fault).

        ``mode="flush"`` drops every packet queued toward the station
        through the drop funnel, like a real AP tearing down the TIDs on
        disassociation (what a shared qdisc still holds for it follows
        as it comes down — see :meth:`LegacyDriver.flush_station`).
        ``mode="park"`` keeps the queues resident but stops scheduling
        them, modelling a powersave doze.  Returns the number of packets
        flushed now.
        """
        if mode not in ("flush", "park"):
            raise ValueError("mode must be 'flush' or 'park'")
        if station not in self.stations:
            raise ValueError(f"no such station: {station}")
        if station in self._detached:
            return 0
        self._detached.add(station)
        self.stations[station].set_detached(True)
        self.scheduler.drop(station)
        self._parked.discard(station)
        if station in self._vo_ring:
            self._vo_ring.remove(station)
        if mode == "park":
            return 0

        flushed = self.stack.flush_station(station)
        for pkt in self._builder.flush_station(station):
            self.drops.report(pkt, "mac", "detach")
            flushed += 1
        for agg in self._hw.flush_station(station):
            for pkt in agg.packets:
                self.drops.report(pkt, "hw", "detach")
                flushed += 1
        return flushed

    def reattach_station(self, station: int) -> None:
        """Re-attach a previously detached station (churn fault)."""
        if station not in self._detached:
            return
        self._detached.discard(station)
        self.stack.admit_station(station)
        self.stations[station].set_detached(False)
        if self._station_has_backlog(station):
            self.scheduler.wake(station)
        if (self.stack.station_backlog(station, AccessCategory.VO) > 0
                and station not in self._vo_ring):
            self._vo_ring.append(station)
        if self.stack.hungry:
            self._refill()
        self._fill_hw()
        self.medium.notify_backlog()

    def remove_station(self, station: int) -> int:
        """Remove ``station`` from this BSS entirely (roaming handoff).

        Flushes its AP-side queues through the drop funnel (a real AP
        tears down the TIDs on disassociation), detaches the node from
        the medium, and forgets it so the :class:`ClientStation` object
        can be re-added to another AP.  The index stays in the detached
        set as a tombstone, so a late arrival for it is dropped, not
        queued (:meth:`add_station` clears it if the station roams back).
        Returns the number of packets flushed.
        """
        if station not in self.stations:
            raise ValueError(f"no such station: {station}")
        # A parked/dozing station still owns queued packets: clear the
        # detached flag first so detach_station re-runs the full flush.
        self._detached.discard(station)
        flushed = self.detach_station(station, mode="flush")
        node = self.stations.pop(station)
        self._rates.pop(station, None)
        self._rate_controllers.pop(station, None)
        self._parked.discard(station)
        self.codel_tuner.forget(station)
        self.medium.detach(node)
        node.medium = None
        node.ap = None
        node.detached = False
        return flushed

    # ------------------------------------------------------------------
    # Uplink (stations -> AP -> wire)
    # ------------------------------------------------------------------
    def receive_uplink(self, agg: Aggregate) -> None:
        """Receive an uplink aggregate; forward its packets to the wire."""
        self.scheduler.report_rx_airtime(agg.station, agg.duration_us)
        if self._ledger is not None:
            self._ledger.charge_ap_rx(agg.station, agg.duration_us)
        if self.network is not None:
            for pkt in agg.packets:
                self.network.to_server(pkt)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def total_queued_packets(self) -> int:
        """Packets in the queue stack (the sampler's ``ap_queued_packets``)."""
        return self.stack.resident()

    def resident_packets(self) -> int:
        """Downlink packets currently resident anywhere inside the AP.

        Everything :meth:`send_downstream` accepted that has neither been
        delivered nor dropped: the queue stack, the builder's holdback
        slots, and the hardware queue.  Frames on the air are the
        medium's (``inflight_downlink_packets``); the audit sums both.
        """
        return (self.stack.resident() + self._builder.holdback_total()
                + self._hw.queued_packets())
