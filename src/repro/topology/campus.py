"""The testbed: one simulator wiring any number of cells.

A :class:`CampusTestbed` realises a :class:`~repro.topology.spec.Topology`:
one :class:`~repro.mac.medium.Medium` per channel (co-channel cells
contend through the DCF arbitration), one AP + stations stack per BSS,
the wired :class:`~repro.net.wire.Network` that follows stations as they
roam, per-BSS airtime trackers, telemetry, fault injection and the
invariant watchdogs.  The paper's setup (Section 4: one AP, its
stations, a wired server) is the one-cell case, entered through
:class:`repro.experiments.testbed.Testbed`.

Determinism contract (tested in ``tests/test_topology*.py``):

* construction order is load-bearing — component creation draws nothing
  from the RNG, but the *attach* order fixes each medium's contender
  iteration order and so the backoff draw order: mediums in ascending
  channel order, cells in declaration order, the AP before its stations,
  stations in ascending index order;
* BSSes on disjoint channels produce identical per-BSS results whether
  simulated jointly or as separate :meth:`Topology.channel_shards`,
  because each channel owns an independent RNG stream and global station
  indices are preserved under restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.analysis.stats import AirtimeTracker
from repro.core.packet import reset_packet_counters
from repro.faults import (
    ConservationReport,
    FaultInjector,
    FaultSchedule,
    InvariantViolation,
    StallDetector,
    audit_conservation,
    count_conservation,
)
from repro.mac.ap import AccessPoint, APConfig, Scheme
from repro.mac.medium import Medium
from repro.mac.station import ClientStation
from repro.net.wire import DEFAULT_WIRE_DELAY_US, Network, Server
from repro.phy.rates import PhyRate
from repro.sim.engine import Simulator
from repro.sim.rng import RngFactory
from repro.telemetry import PeriodicSampler, Telemetry, TelemetryConfig
from repro.telemetry import flightrec
from repro.topology.spec import RoamEvent, Topology

__all__ = ["BssStack", "CampusOptions", "CampusTestbed", "TestbedOptions"]


@dataclass(frozen=True)
class TestbedOptions:
    """Testbed-wide knobs (per-cell shape lives in the Topology)."""

    scheme: Scheme = Scheme.AIRTIME
    seed: int = 1
    wire_delay_us: float = DEFAULT_WIRE_DELAY_US
    error_rate: float = 0.0
    ap_config: Optional[APConfig] = None
    #: Optional per-station rate-dependent channels (the rate-control
    #: extension); maps station index -> StationChannel.
    station_channels: Optional[dict] = None
    #: Client uplink queueing: 'fq_codel' (Ubuntu 16.04 default) / 'fifo'.
    client_queueing: str = "fq_codel"
    #: Telemetry (tracing / metrics); ``None`` or an inactive config keeps
    #: every instrumentation site on its zero-cost path.
    telemetry: Optional[TelemetryConfig] = None
    #: Fault injection (channel impairments, churn); ``None`` runs clean.
    #: Rides in the cache digest like every other option, so impaired
    #: runs never collide with clean ones.
    faults: Optional[FaultSchedule] = None
    #: Strict mode: invariant-watchdog violations (packet conservation,
    #: stalls, a failed ledger audit) raise :class:`InvariantViolation`
    #: instead of being recorded for the report.
    strict: bool = False


#: The same dataclass under its campus-side name.
CampusOptions = TestbedOptions


@dataclass
class BssStack:
    """One built cell: the AP plus its stations, keyed by global index."""

    bss_id: int
    channel: int
    ap: AccessPoint
    stations: Dict[int, ClientStation] = field(default_factory=dict)


#: Field shape of a ``tx`` trace record (multi-cell runs append ``bss``).
_TX_SHAPE = (
    ("station", "q"), ("airtime_us", "d"), ("tx_us", "d"),
    ("down", "b"), ("agg", "q"), ("n_pkts", "q"),
    ("bytes", "q"), ("ac", "s"), ("ok", "b"), ("retries", "q"),
)


class CampusTestbed:
    """A fully wired simulation: APs + stations + server + measurement."""

    def __init__(
        self,
        topology: Topology,
        options: TestbedOptions,
        rates: Optional[Mapping[int, PhyRate]] = None,
    ) -> None:
        """``rates`` pins explicit PHY rates by station index, overriding
        the topology's MCS-derived ones (the paper's 30-station testbed
        has a legacy 1 Mbps station, which is not an MCS index)."""
        self.topology = topology
        self.options = options
        single = topology.single_bss
        # Topology churn rides the fault injector like scheduled churn.
        faults = options.faults or FaultSchedule()
        faults = replace(faults, churn=faults.churn + topology.churn)
        faults.check_stations(
            {i for spec in topology.bsses for i in spec.station_indices()}
        )
        # Packet/flow ids are process-global counters; restart them per
        # testbed so a run's trace does not depend on what else ran in
        # this process (serial vs pool-worker execution).
        reset_packet_counters()
        self.sim = Simulator()
        self.rng = RngFactory(options.seed)

        # --- one medium per channel, ascending channel order ----------
        error_prob_fn = None
        if options.station_channels is not None:
            channels = options.station_channels

            def error_prob_fn(agg, _channels=channels):
                channel = _channels.get(agg.station)
                return channel.error_prob(agg.rate) if channel else 0.0

        # Channel 0 draws from the historical "medium" stream; every
        # other channel has its own independent one.
        self.mediums: Dict[int, Medium] = {
            channel: Medium(
                self.sim,
                self.rng.stream(
                    "medium" if channel == 0 else f"medium.ch{channel}"
                ),
                error_rate=options.error_rate,
                error_prob_fn=error_prob_fn,
            )
            for channel in topology.channels()
        }

        # --- per-BSS stacks, declaration order ------------------------
        if options.ap_config is not None:
            config = replace(options.ap_config, scheme=options.scheme)
        else:
            config = APConfig(scheme=options.scheme)
        self.bss: Dict[int, BssStack] = {}
        self.stations: Dict[int, ClientStation] = {}
        #: Station -> bss id currently serving it (updated on roam).
        self.serving: Dict[int, int] = {}
        for spec in topology.bsses:
            ap = AccessPoint(self.sim, self.mediums[spec.channel], config,
                             bss=spec.bss_id)
            stack = BssStack(spec.bss_id, spec.channel, ap)
            for index, rate in spec.station_rates():
                if rates is not None:
                    rate = rates.get(index, rate)
                station = ClientStation(index, rate, self.sim,
                                        queueing=options.client_queueing)
                ap.add_station(station)
                stack.stations[index] = station
                self.serving[index] = spec.bss_id
            self.bss[spec.bss_id] = stack
            self.stations.update(stack.stations)

        # --- shared backhaul ------------------------------------------
        self.server = Server()
        self.network = Network(
            self.sim,
            self.server,
            {bss_id: stack.ap for bss_id, stack in self.bss.items()},
            self.serving,
            delay_us=options.wire_delay_us,
        )

        # --- per-BSS airtime accounting -------------------------------
        self.trackers: Dict[int, AirtimeTracker] = {}
        for spec in topology.bsses:
            tracker = self.trackers[spec.bss_id] = AirtimeTracker()
            self.mediums[spec.channel].add_observer(
                tracker.on_transmission if single
                else self._bss_filter(tracker, spec.bss_id)
            )

        #: Hooks invoked when the warm-up window ends (flows register
        #: their ``reset_window`` here).
        self.warmup_resets: List[Callable[[], None]] = []

        # --- telemetry -------------------------------------------------
        self.telemetry: Optional[Telemetry] = None
        self.sampler: Optional[PeriodicSampler] = None
        if options.telemetry is not None and options.telemetry.active:
            self.telemetry = Telemetry(options.telemetry)
            for stack in self.bss.values():
                stack.ap.set_trace(self.telemetry)
            tx_channel = self.telemetry.channel("tx")
            if tx_channel is not None:
                self._wire_tx_trace(tx_channel, single)
            ledger = self._audited_ledger()
            if ledger is not None:
                self.medium.add_observer(ledger.on_transmission)
                self.ap.set_ledger(ledger)
            if self.telemetry.metrics is not None:
                self.sampler = PeriodicSampler(
                    self.sim, self.telemetry.metrics,
                    interval_ms=options.telemetry.sample_interval_ms,
                )
                self.sampler.add_probe(self._sample_queues)
                self.sampler.add_probe(self._sample_stations)
                self.sampler.start()

        # --- roaming schedule -----------------------------------------
        #: (time_us, station, from_bss, to_bss, flushed) per completed roam.
        self.roam_log: List[Tuple[float, int, int, int, int]] = []
        for event in topology.roam:
            self.sim.schedule_call(
                self.sim.sec(event.at_s), self._roam_entry, event
            )
        #: Channel busy-time baselines captured when measurement starts.
        self._busy_baseline: Dict[int, float] = {c: 0.0 for c in self.mediums}

        # --- fault injection + watchdogs -------------------------------
        self.fault_injector: Optional[FaultInjector] = None
        self.stall_detector: Optional[StallDetector] = None
        #: Whole-testbed audit, filled by :meth:`run` when faults, roaming
        #: or strict mode are active.
        self.conservation: Optional[ConservationReport] = None
        fault_channel = (
            self.telemetry.channel("fault")
            if self.telemetry is not None else None
        )
        if not faults.empty:
            self.fault_injector = FaultInjector(
                self, faults, trace_channel=fault_channel
            ).install()
        if options.strict or self.fault_injector is not None:
            self.stall_detector = StallDetector(
                self, strict=options.strict, trace_channel=fault_channel
            ).start()
        if options.strict:
            # Same-timestamp livelock guard on the event engine; one µs of
            # simulated time never legitimately needs this many events.
            self.sim.set_stall_guard(1_000_000)

        # Flight recorder: whoever dies while this testbed is the active
        # simulation can dump its ring tail / watchdog / streaming state.
        # Weak registration; a no-op unless REPRO_FLIGHT_DIR is set.
        flightrec.register(self)

    # ------------------------------------------------------------------
    # One-cell accessors
    # ------------------------------------------------------------------
    def _only(self, things: Dict, name: str):
        if not self.topology.single_bss:
            raise ValueError(
                f"testbed has {len(self.bss)} cells: index {name}[...] "
                "instead of using the one-cell accessor"
            )
        (only,) = things.values()
        return only

    @property
    def ap(self) -> AccessPoint:
        return self._only(self.bss, "bss").ap

    @property
    def medium(self) -> Medium:
        return self._only(self.mediums, "mediums")

    @property
    def tracker(self) -> AirtimeTracker:
        return self._only(self.trackers, "trackers")

    # ------------------------------------------------------------------
    # Wiring helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _bss_filter(tracker: AirtimeTracker, bss_id: int):
        def on_tx(record, _tracker=tracker, _bss=bss_id):
            if record.bss == _bss:
                _tracker.on_transmission(record)
        return on_tx

    def _audited_ledger(self):
        """The double-entry ledger audits one AP against the analytical
        model; multi-cell runs skip it (conservation is audited channel
        shard by channel shard instead)."""
        if self.telemetry is None or not self.topology.single_bss:
            return None
        return self.telemetry.ledger

    def _wire_tx_trace(self, tx_channel, single: bool) -> None:
        """Emit one ``tx`` record per transmission on any medium."""
        if single:
            em_tx = tx_channel.emitter("tx", _TX_SHAPE)

            def on_tx(rec, _emit=em_tx):
                _emit(
                    rec.start_us + rec.airtime_us,
                    rec.station, rec.airtime_us, rec.tx_time_us,
                    rec.downlink, rec.agg_seq, rec.n_packets,
                    rec.payload_bytes, rec.ac.name, rec.success,
                    rec.retries,
                )
        else:
            em_tx = tx_channel.emitter("tx", _TX_SHAPE + (("bss", "q"),))

            def on_tx(rec, _emit=em_tx):
                _emit(
                    rec.start_us + rec.airtime_us,
                    rec.station, rec.airtime_us, rec.tx_time_us,
                    rec.downlink, rec.agg_seq, rec.n_packets,
                    rec.payload_bytes, rec.ac.name, rec.success,
                    rec.retries, rec.bss,
                )
        for medium in self.mediums.values():
            medium.add_observer(on_tx)

    # ------------------------------------------------------------------
    # Samplers (bare keys on one cell; ``bssN.``-prefixed otherwise)
    # ------------------------------------------------------------------
    def _key_prefix(self, bss_id: int) -> str:
        return "" if self.topology.single_bss else f"bss{bss_id}."

    def _sample_queues(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for bss_id, stack in self.bss.items():
            prefix = self._key_prefix(bss_id)
            out[f"{prefix}ap_queued_packets"] = stack.ap.total_queued_packets()
            out[f"{prefix}hw_occupancy"] = stack.ap._hw.occupancy()
            out["sim_heap_len"] = self.sim.heap_len
            out.update(stack.ap.stack.samples(prefix))
        return out

    def _sample_stations(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for bss_id, stack in self.bss.items():
            prefix = self._key_prefix(bss_id)
            snapshot = stack.ap.scheduler.deficit_snapshot()
            for station, deficit in snapshot.items():
                out[f"{prefix}sched_deficit_us.{station}"] = deficit
            for station, airtime in self.trackers[bss_id].airtime_us.items():
                out[f"{prefix}airtime_us.{station}"] = airtime
            out.update(stack.ap.stack.samples(prefix, by_station=True))
        return out

    def finish_telemetry(self) -> Optional[Dict]:
        """Stop sampling, flush trace/metrics, return the summary dict."""
        if self.telemetry is None:
            return None
        if self.sampler is not None:
            self.sampler.stop()
        return self.telemetry.finish()

    # ------------------------------------------------------------------
    # Roaming
    # ------------------------------------------------------------------
    def roam(self, station: int, to_bss: int) -> int:
        """Move ``station`` to ``to_bss`` now; returns packets flushed.

        Disassociation flushes the source cell's queues for the station
        through the drop funnel (``detach`` semantics), then the station
        associates with the target cell and its pending uplink backlog
        re-arms the new channel.
        """
        from_bss = self.serving[station]
        if to_bss == from_bss:
            return 0
        if to_bss not in self.bss:
            raise ValueError(f"no such BSS: {to_bss}")
        source = self.bss[from_bss]
        target = self.bss[to_bss]
        node = source.stations.pop(station)
        flushed = source.ap.remove_station(station)
        self.serving[station] = to_bss
        target.ap.add_station(node)
        target.stations[station] = node
        # Wake the new channel for any uplink backlog carried across.
        node.set_detached(False)
        self.roam_log.append((self.sim.now, station, from_bss, to_bss, flushed))
        return flushed

    def _roam_entry(self, event: RoamEvent) -> None:
        self.roam(event.station, event.to_bss)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def audit_conservation(self) -> Dict[str, ConservationReport]:
        """Packet conservation per channel shard.

        Shards are closed under roaming (cross-channel roams merge their
        shards), so every packet a shard's APs accepted is delivered,
        dropped, or resident *inside that shard* — including frames
        mid-flight on its mediums.
        """
        return {
            "ch" + "+".join(str(c) for c in shard.channels()):
            count_conservation(
                (self.bss[spec.bss_id].ap for spec in shard.bsses),
                (self.stations[index] for spec in shard.bsses
                 for index in spec.station_indices()),
                (self.mediums[channel] for channel in shard.channels()),
            )
            for shard in self.topology.channel_shards()
        }

    # ------------------------------------------------------------------
    def add_warmup_reset(self, reset: Callable[[], None]) -> None:
        self.warmup_resets.append(reset)

    def run(self, duration_s: float, warmup_s: float = 0.0) -> float:
        """Run warm-up then the measurement window.

        Returns the measurement window length in µs (the divisor for
        throughput computations).
        """
        if not (0 < duration_s < math.inf):
            raise ValueError(
                f"duration_s must be finite and > 0, got {duration_s!r}")
        if not (0 <= warmup_s < math.inf):
            raise ValueError(
                f"warmup_s must be finite and >= 0, got {warmup_s!r}")
        ledger = self._audited_ledger()
        strict = self.options.strict
        if warmup_s > 0:
            self.sim.run(until_us=self.sim.sec(warmup_s))
            for tracker in self.trackers.values():
                tracker.reset()
            for reset in self.warmup_resets:
                reset()
            if ledger is not None:
                # The ledger windows exactly like the AirtimeTracker:
                # warm-up traffic is discarded, and the busy/collision
                # baselines anchor the conservation check.
                ledger.reset(
                    busy_baseline_us=self.medium.busy_time_us,
                    collision_baseline=self.medium.collision_count,
                )
        if self.telemetry is not None:
            # Everything after this marker is the measurement window; the
            # trace summariser windows its airtime table here, exactly
            # where the AirtimeTrackers reset.
            self.telemetry.mark(self.sim.now, "measurement_start")
        for channel, medium in self.mediums.items():
            self._busy_baseline[channel] = medium.busy_time_us
        start = self.sim.now
        self.sim.run(until_us=self.sim.sec(warmup_s + duration_s))
        window_us = self.sim.now - start
        fault_channel = (
            self.telemetry.channel("fault")
            if self.telemetry is not None else None
        )
        if self.stall_detector is not None:
            self.stall_detector.stop()
        if strict or self.fault_injector is not None or self.topology.roam:
            self.conservation = audit_conservation(self)
            for label, report in self.audit_conservation().items():
                if fault_channel is not None:
                    # One cell is one shard: the record needs no label.
                    shard = {} if self.topology.single_bss else {"shard": label}
                    fault_channel.emit(
                        self.sim.now, "conservation", **shard,
                        ok=report.ok, balance=report.balance,
                    )
                if strict and not report.ok:
                    raise InvariantViolation(f"[{label}] {report.describe()}")
        if ledger is not None:
            audit = ledger.audit(
                rates={s: st.rate for s, st in self.stations.items()},
                airtime_fairness=self.ap.descriptor.airtime_fair,
                tolerance=self.options.telemetry.ledger_tolerance,
                medium_busy_us=self.medium.busy_time_us,
                collision_count=self.medium.collision_count,
            )
            self.telemetry.ledger_audit = audit
            if fault_channel is not None:
                fault_channel.emit(
                    self.sim.now, "ledger_audit", ok=audit.ok,
                    worst_delta=audit.worst_delta,
                    model_checked=audit.model_checked,
                )
            if strict and not audit.ok:
                raise InvariantViolation(audit.describe())
        return window_us

    # ------------------------------------------------------------------
    def busy_share(self, channel: int, window_us: float) -> float:
        """Channel occupancy over the measurement window."""
        if window_us <= 0:
            return 0.0
        busy = self.mediums[channel].busy_time_us - self._busy_baseline[channel]
        return busy / window_us


# Library code, not test cases (pytest collects classes named Test*).
CampusTestbed.__test__ = False
TestbedOptions.__test__ = False
