"""The shared wireless medium: simplified DCF arbitration.

One transmitter occupies the channel at a time.  When the channel goes
idle and at least one node has pending frames, every contender draws a
random backoff (uniform over its contention window, in slots); the lowest
draw transmits after DIFS + backoff.  VO-category traffic uses 802.11e's
much shorter contention window, which in this model translates to
near-strict priority plus lower access latency — the effect Table 2's VO
rows depend on.

Only contenders that may have frames are visited: the medium keeps a
*ready set* in registration order, and a contender re-enters it through
the hook :meth:`Medium.attach` returns (see :class:`Contender`).

Simplifications, matching the paper's analytical model (Section 2.2.1):

* no collisions by default — ties are broken randomly instead of
  colliding, and the optional error model (``error_rate``) injects
  losses independently.  Pass ``collisions=True`` for real DCF
  behaviour: contenders drawing the same backoff slot collide (all
  transmissions fail) and double their contention window (binary
  exponential backoff, reset on success);
* no carrier-sense anomalies, hidden nodes, or rate adaptation — stations
  have fixed configured rates, as in the testbed (the slow station is
  *pinned* to MCS0 / 1 Mbps).  Rate adaptation is available as an
  extension through ``error_prob_fn`` + the AP's Minstrel controller.

Airtime accounting: observers receive a :class:`TransmissionRecord` for
every completed transmission with the full channel occupancy *including*
the contention overhead the transmitter spent — this mirrors the paper's
in-kernel measurement, which was verified against monitor-mode captures
to within 1.5%.
"""

from __future__ import annotations

import random
from operator import attrgetter, itemgetter
from typing import Callable, List, NamedTuple, Optional, Protocol

from repro.core.packet import AccessCategory
from repro.mac.aggregation import Aggregate
from repro.phy.constants import CW_MAX, CW_MIN, CW_MIN_VO, T_DIFS_US, T_SLOT_US
from repro.sim.engine import Simulator

__all__ = ["Medium", "Contender", "TransmissionRecord"]

#: Backoff winner order: fewest slots first, RNG tiebreak second
#: (C-level key — this sort runs once per arbitration).
_DRAW_KEY = itemgetter(0, 1)
#: Ready-set order: registration order, the order draws are made in.
_ORDER = attrgetter("order")


class Contender(Protocol):
    """What the medium needs from a node that wants to transmit.

    Readiness obligation: :meth:`Medium.attach` returns a hook, and the
    contender calls it whenever :meth:`has_frames_pending` may have gone
    from false to true — its hardware queue going from empty to
    non-empty, a detached station re-attaching with frames queued.  The
    medium only polls contenders that called it since it last found them
    idle (and every contender once, at attach); extra calls are free.
    """

    def has_frames_pending(self) -> bool:
        """True if the node would transmit, were it granted the channel."""
        ...

    def pending_access_category(self) -> Optional[AccessCategory]:
        """AC of the node's next frame (sets its contention window)."""
        ...

    def start_txop(self) -> Optional[Aggregate]:
        """Hand the medium the aggregate to transmit (may be ``None``)."""
        ...

    def txop_complete(self, agg: Aggregate, success: bool) -> None:
        """Called when the transmission finishes (delivery is separate)."""
        ...


class TransmissionRecord(NamedTuple):
    """Accounting record for one completed transmission.

    A named tuple: one is built per transmission, and a tuple is the
    cheapest immutable record to build (a frozen dataclass pays an
    ``object.__setattr__`` per field)."""

    start_us: float
    #: Channel occupancy including DIFS+backoff spent by the transmitter.
    airtime_us: float
    #: Occupancy excluding contention (what the deficit scheduler charges).
    tx_time_us: float
    #: The client station involved (receiver for downlink, sender for
    #: uplink) — airtime is always attributed to a station, as the paper's
    #: per-station accounting does.
    station: int
    #: True when the AP transmitted (downlink).
    downlink: bool
    n_packets: int
    payload_bytes: int
    ac: AccessCategory
    success: bool
    retries: int
    #: Aggregate sequence id (joins trace records across layers).
    agg_seq: int = -1
    #: BSS the transmitter belongs to (multi-BSS topologies share one
    #: medium per channel; single-AP setups always report BSS 0).
    bss: int = 0


Observer = Callable[[TransmissionRecord], None]


class _Slot:
    """One attached contender: its place in registration order and
    whether it is in the medium's ready set."""

    __slots__ = ("contender", "is_ap", "bss", "order", "ready", "medium")

    def __init__(self, medium: "Medium", contender: Contender, is_ap: bool,
                 bss: int, order: int) -> None:
        self.contender = contender
        self.is_ap = is_ap
        self.bss = bss
        self.order = order
        self.ready = False
        #: ``None`` once detached: the hook is then a no-op.
        self.medium: Optional[Medium] = medium

    def mark_ready(self) -> None:
        """The readiness hook :meth:`Medium.attach` hands out."""
        if not self.ready and self.medium is not None:
            self.ready = True
            self.medium._ready.append(self)


class Medium:
    """Serialises transmissions from registered contenders."""

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        error_rate: float = 0.0,
        error_prob_fn: Optional[Callable[[Aggregate], float]] = None,
        collisions: bool = False,
    ) -> None:
        if not 0.0 <= error_rate < 1.0:
            raise ValueError("error_rate must be in [0, 1)")
        self.sim = sim
        self.rng = rng
        self.error_rate = error_rate
        #: Optional per-transmission error model (e.g. rate-dependent
        #: channels for the rate-control extension); overrides
        #: ``error_rate`` when set.
        self.error_prob_fn = error_prob_fn
        self.collisions = collisions
        self._contenders: List[_Slot] = []
        self._next_order = 0
        #: Contenders that may have frames pending: a superset of those
        #: that do, pruned lazily by :meth:`_arbitrate`.
        self._ready: List[_Slot] = []
        self._observers: List[Observer] = []
        self._busy = False
        self._arbitration_scheduled = False
        #: Total time the channel spent occupied (for utilisation stats).
        self.busy_time_us = 0.0
        #: Collision events (collisions=True only).
        self.collision_count = 0
        #: Binary-exponential-backoff state: per-contender current CW.
        self._cw: dict[int, int] = {}
        #: Aggregates currently on the air, as (agg, is_ap, bss) triples —
        #: conservation audits must count a mid-flight frame as resident.
        self._inflight: list[tuple[Aggregate, bool, int]] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def attach(self, contender: Contender, is_ap: bool,
               bss: int = 0) -> Callable[[], None]:
        """Register a transmitter on this channel; returns its readiness
        hook (the :class:`Contender` obligation).

        Co-channel BSSes share one medium, so several ``is_ap=True``
        contenders are legal — but only one per BSS id: two APs claiming
        the same cell would double-count downlink airtime and break the
        per-BSS conservation audit.
        """
        for slot in self._contenders:
            if slot.contender is contender:
                raise ValueError("contender is already attached to this medium")
            if is_ap and slot.is_ap and slot.bss == bss:
                raise ValueError(
                    f"BSS {bss} already has an AP attached to this medium"
                )
        slot = _Slot(self, contender, is_ap, bss, self._next_order)
        self._next_order += 1
        self._contenders.append(slot)
        slot.mark_ready()
        return slot.mark_ready

    def detach(self, contender: Contender) -> bool:
        """Unregister a transmitter (roaming handoff). Idempotent.

        Returns ``True`` when the contender was attached.  BEB state is
        discarded so a station re-attaching elsewhere starts from CWmin,
        and the readiness hook goes dead: a station that roamed away can
        never put itself back into this medium's draws.
        """
        for i, slot in enumerate(self._contenders):
            if slot.contender is contender:
                del self._contenders[i]
                slot.medium = None
                if slot.ready:
                    slot.ready = False
                    self._ready.remove(slot)
                self._cw.pop(id(contender), None)
                return True
        return False

    def add_observer(self, observer: Observer) -> None:
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # In-flight accounting
    # ------------------------------------------------------------------
    def _track_inflight(self, agg: Aggregate, is_ap: bool, bss: int) -> None:
        self._inflight.append((agg, is_ap, bss))

    def _untrack_inflight(self, agg: Aggregate) -> None:
        for i, (candidate, _is_ap, _bss) in enumerate(self._inflight):
            if candidate is agg:
                del self._inflight[i]
                return

    def inflight_downlink_packets(self, bss: Optional[int] = None) -> int:
        """Packets inside AP aggregates currently on the air.

        With ``bss`` set, counts only that cell's aggregates.
        """
        return sum(
            agg.n_packets
            for agg, is_ap, agg_bss in self._inflight
            if is_ap and (bss is None or agg_bss == bss)
        )

    # ------------------------------------------------------------------
    # Channel access
    # ------------------------------------------------------------------
    def notify_backlog(self) -> None:
        """A node became backlogged; arbitrate if the channel is idle."""
        if self._busy or self._arbitration_scheduled:
            return
        self._arbitration_scheduled = True
        self.sim.schedule_call(0.0, self._arbitrate)

    def _cw_for(self, contender: Contender, ac: Optional[AccessCategory]) -> int:
        base = CW_MIN_VO if ac is AccessCategory.VO else CW_MIN
        if not self.collisions:
            return base
        return max(base, self._cw.get(id(contender), base))

    def _beb_on_collision(self, contender: Contender,
                          ac: Optional[AccessCategory]) -> None:
        """Binary exponential backoff: double CW up to CWmax."""
        current = self._cw_for(contender, ac)
        self._cw[id(contender)] = min(CW_MAX, 2 * current + 1)

    def _beb_on_success(self, contender: Contender) -> None:
        self._cw.pop(id(contender), None)

    def _arbitrate(self) -> None:
        self._arbitration_scheduled = False
        if self._busy:
            return
        # Every contender with frames is in the ready set, visited in
        # registration order, so the draws are those of a poll over every
        # attached contender; an idle one leaves the set (lazy pruning).
        ready = self._ready
        ready.sort(key=_ORDER)
        rng = self.rng
        draws: List[tuple[float, float, Contender, bool, int]] = []
        pruned = False
        for slot in ready:
            contender = slot.contender
            if not contender.has_frames_pending():
                slot.ready = False
                pruned = True
                continue
            ac = contender.pending_access_category()
            slots = rng.randint(0, self._cw_for(contender, ac))
            draws.append(
                (float(slots), rng.random(), contender, slot.is_ap, slot.bss)
            )
        if pruned:
            self._ready = [slot for slot in ready if slot.ready]
        if not draws:
            return

        draws.sort(key=_DRAW_KEY)
        first = draws[0]
        min_slots = first[0]
        wait_us = T_DIFS_US + min_slots * T_SLOT_US
        self._busy = True
        if self.collisions:
            tied = [d for d in draws if d[0] == min_slots]
            if len(tied) > 1:
                participants = [(d[2], d[3], d[4]) for d in tied]
                self.sim.schedule(
                    wait_us, lambda: self._start_collision(participants, wait_us)
                )
                return
        self.sim.schedule_call(
            wait_us, self._start_entry, (first[2], first[3], first[4], wait_us)
        )

    def _start_entry(self, args: tuple) -> None:
        self._start(args[0], args[1], args[2], args[3])

    def _complete_entry(self, args: tuple) -> None:
        self._complete(args[0], args[1], args[2], args[3], args[4])

    def _start_collision(
        self, participants: List[tuple[Contender, bool, int]], wait_us: float
    ) -> None:
        """Several nodes chose the same slot: all transmissions fail."""
        started: List[tuple[Contender, bool, int, Aggregate]] = []
        for contender, is_ap, bss in participants:
            agg = contender.start_txop()
            if agg is not None:
                started.append((contender, is_ap, bss, agg))
                self._track_inflight(agg, is_ap, bss)
        if not started:
            self._busy = False
            self.notify_backlog()
            return
        if len(started) == 1:
            # Everyone else's frames evaporated: a normal transmission.
            contender, is_ap, bss, agg = started[0]
            duration = agg.duration_us
            self.sim.schedule(
                duration,
                lambda: self._complete_started(
                    contender, is_ap, bss, agg, wait_us
                ),
            )
            return
        self.collision_count += 1
        duration = max(agg.duration_us for _, _, _, agg in started)
        self.sim.schedule(
            duration, lambda: self._finish_collision(started, wait_us, duration)
        )

    def _finish_collision(
        self,
        started: List[tuple[Contender, bool, int, Aggregate]],
        wait_us: float,
        duration: float,
    ) -> None:
        self.busy_time_us += duration + wait_us
        self._busy = False
        for contender, is_ap, bss, agg in started:
            self._untrack_inflight(agg)
            self._beb_on_collision(contender, agg.ac)
            record = TransmissionRecord(
                start_us=self.sim.now - duration - wait_us,
                airtime_us=agg.duration_us + wait_us,
                tx_time_us=agg.duration_us,
                station=agg.station,
                downlink=is_ap,
                n_packets=agg.n_packets,
                payload_bytes=agg.payload_bytes,
                ac=agg.ac,
                success=False,
                retries=agg.retries,
                agg_seq=agg.seq,
                bss=bss,
            )
            contender.txop_complete(agg, False)
            for observer in self._observers:
                observer(record)
        self.notify_backlog()

    def _start(
        self, winner: Contender, is_ap: bool, bss: int, wait_us: float
    ) -> None:
        agg = winner.start_txop()
        if agg is None:
            # The node's pending frames evaporated between arbitration and
            # grant (e.g. CoDel emptied the queue); release the channel.
            self._busy = False
            self.notify_backlog()
            return
        self._track_inflight(agg, is_ap, bss)
        duration = agg.duration_us
        self.sim.schedule_call(
            duration, self._complete_entry, (winner, is_ap, bss, agg, wait_us)
        )

    def _complete(
        self,
        winner: Contender,
        is_ap: bool,
        bss: int,
        agg: Aggregate,
        wait_us: float,
    ) -> None:
        if self.error_prob_fn is not None:
            error_prob = self.error_prob_fn(agg)
        else:
            error_prob = self.error_rate
        success = error_prob == 0.0 or self.rng.random() >= error_prob
        duration = agg.duration_us
        record = TransmissionRecord(
            start_us=self.sim.now - duration - wait_us,
            airtime_us=duration + wait_us,
            tx_time_us=duration,
            station=agg.station,
            downlink=is_ap,
            n_packets=agg.n_packets,
            payload_bytes=agg.payload_bytes,
            ac=agg.ac,
            success=success,
            retries=agg.retries,
            agg_seq=agg.seq,
            bss=bss,
        )
        self.busy_time_us += record.airtime_us
        self._busy = False
        self._untrack_inflight(agg)
        if success and self.collisions:
            self._beb_on_success(winner)
        winner.txop_complete(agg, success)
        for observer in self._observers:
            observer(record)
        self.notify_backlog()

    # Collision path resolving to a single transmitter reuses the normal
    # completion handling.
    _complete_started = _complete
