"""The shared wireless medium: simplified DCF arbitration.

One transmitter occupies the channel at a time.  When the channel goes
idle and at least one node has pending frames, every contender draws a
random backoff (uniform over its contention window, in slots); the lowest
draw transmits after DIFS + backoff.  VO-category traffic uses 802.11e's
much shorter contention window, which in this model translates to
near-strict priority plus lower access latency — the effect Table 2's VO
rows depend on.

The medium reads each contender's hardware queue directly: only
contenders that may have frames are visited (a *ready set* in
registration order), and a queue going from empty to non-empty puts its
contender back through the hook :meth:`Medium.attach` installs (see
:class:`Contender`).

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
from repro.mac.hwqueue import HardwareQueue
from repro.phy.constants import CW_MAX, CW_MIN, CW_MIN_VO, T_DIFS_US, T_SLOT_US
from repro.sim.engine import Simulator

__all__ = ["Medium", "Contender", "TransmissionRecord"]

#: Backoff winner order: fewest slots first, RNG tiebreak second
#: (C-level key — this sort runs once per arbitration).
_DRAW_KEY = itemgetter(0, 1)
#: Ready-set order: registration order, the order draws are made in.
_ORDER = attrgetter("order")
#: ``_randbelow`` bounds of the two fixed windows (collisions off).
_DRAW_BOUND = CW_MIN + 1
_VO_DRAW_BOUND = CW_MIN_VO + 1


class Contender(Protocol):
    """What the medium needs from a node that transmits.

    Its frames are not asked for: :meth:`Medium.attach` takes the node's
    :class:`~repro.mac.hwqueue.HardwareQueue` with it, reads the queue's
    head AC at each arbitration and pops the winner's aggregate at the
    grant.  Readiness rides on the queue too: ``attach`` installs the
    slot's hook as the queue's ``on_ready``, so the queue going from
    empty to non-empty puts the node back into the draws.
    """

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
    """One attached contender: its hardware queue, its place in
    registration order, whether it is in the medium's ready set, and
    whether it is detached (station churn: a detached station keeps its
    slot but leaves the draws until it re-attaches)."""

    __slots__ = ("contender", "hw", "is_ap", "bss", "order", "ready",
                 "detached", "medium")

    def __init__(self, medium: "Medium", contender: Contender,
                 hw: HardwareQueue, is_ap: bool, bss: int,
                 order: int) -> None:
        self.contender = contender
        self.hw = hw
        self.is_ap = is_ap
        self.bss = bss
        self.order = order
        self.ready = False
        self.detached = False
        #: ``None`` once detached from the medium: the hook is then a no-op.
        self.medium: Optional[Medium] = medium

    def mark_ready(self) -> None:
        """The readiness hook :meth:`Medium.attach` installs on the queue."""
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
        #: Transmissions on the air, as the ``(slot, agg, wait_us)`` tuples
        #: their completions are scheduled with — conservation audits
        #: must count a mid-flight frame as resident.
        self._inflight: List[tuple] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def attach(self, contender: Contender, hw: HardwareQueue, is_ap: bool,
               bss: int = 0) -> _Slot:
        """Register a transmitter and the hardware queue it sends from.

        Installs the slot's readiness hook as ``hw.on_ready`` and returns
        the slot (a station flips its ``detached`` on churn).  Co-channel
        BSSes share one medium, so several ``is_ap=True`` contenders are
        legal — but only one per BSS id: two APs claiming the same cell
        would double-count downlink airtime and break the per-BSS
        conservation audit.
        """
        for slot in self._contenders:
            if slot.contender is contender:
                raise ValueError("contender is already attached to this medium")
            if is_ap and slot.is_ap and slot.bss == bss:
                raise ValueError(
                    f"BSS {bss} already has an AP attached to this medium"
                )
        slot = _Slot(self, contender, hw, is_ap, bss, self._next_order)
        self._next_order += 1
        self._contenders.append(slot)
        hw.on_ready = slot.mark_ready
        slot.mark_ready()
        return slot

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

    def inflight_downlink_packets(self, bss: Optional[int] = None) -> int:
        """Packets inside AP aggregates currently on the air.

        With ``bss`` set, counts only that cell's aggregates.
        """
        return sum(
            agg.n_packets
            for slot, agg, _wait_us in self._inflight
            if slot.is_ap and (bss is None or slot.bss == bss)
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
        # The head AC is VO exactly when the VO deque holds a frame, and
        # ``randint(0, cw)`` returns ``_randbelow(cw + 1)``: the draw is
        # made here without randint's wrapper frames.
        ready = self._ready
        ready.sort(key=_ORDER)
        rng = self.rng
        randbelow = rng._randbelow
        random = rng.random
        beb = self.collisions
        draws: List[tuple[int, float, _Slot]] = []
        pruned = False
        for slot in ready:
            hw = slot.hw
            vo = hw._vo_q
            if slot.detached or not (hw._be_q or vo or hw._vi_q or hw._bk_q):
                slot.ready = False
                pruned = True
                continue
            if beb:
                bound = self._cw_for(slot.contender, hw.head_ac()) + 1
            else:
                bound = _VO_DRAW_BOUND if vo else _DRAW_BOUND
            draws.append((randbelow(bound), random(), slot))
        if pruned:
            self._ready = [slot for slot in ready if slot.ready]
        if not draws:
            return

        draws.sort(key=_DRAW_KEY)
        min_slots, _tiebreak, winner = draws[0]
        wait_us = T_DIFS_US + min_slots * T_SLOT_US
        self._busy = True
        if beb:
            tied = [draw[2] for draw in draws if draw[0] == min_slots]
            if len(tied) > 1:
                self.sim.schedule_call(wait_us, self._start_collision,
                                       (tied, wait_us))
                return
        self.sim.schedule_call(wait_us, self._start, (winner, wait_us))

    def _start(self, grant: tuple) -> None:
        slot, wait_us = grant
        agg = slot.hw.pop()
        if agg is None:
            # The node's pending frames evaporated between arbitration and
            # grant (e.g. a churn flush emptied the queue); release the
            # channel.
            self._busy = False
            self.notify_backlog()
            return
        txop = (slot, agg, wait_us)
        self._inflight.append(txop)
        self.sim.schedule_call(agg.duration_us, self._complete, txop)

    def _complete(self, txop: tuple) -> None:
        slot, agg, wait_us = txop
        if self.error_prob_fn is not None:
            error_prob = self.error_prob_fn(agg)
        else:
            error_prob = self.error_rate
        success = error_prob == 0.0 or self.rng.random() >= error_prob
        duration = agg.duration_us
        airtime_us = duration + wait_us
        record = TransmissionRecord(
            self.sim.now - duration - wait_us, airtime_us, duration,
            agg.station, slot.is_ap, agg.n_packets, agg.payload_bytes,
            agg.ac, success, agg.retries, agg.seq, slot.bss,
        )
        self.busy_time_us += airtime_us
        self._busy = False
        self._inflight.remove(txop)
        if success and self.collisions:
            self._beb_on_success(slot.contender)
        slot.contender.txop_complete(agg, success)
        for observer in self._observers:
            observer(record)
        # ``notify_backlog()`` inlined: the channel was just released.
        if not self._arbitration_scheduled:
            self._arbitration_scheduled = True
            self.sim.schedule_call(0.0, self._arbitrate)

    def _start_collision(self, grant: tuple) -> None:
        """Several nodes chose the same slot: all transmissions fail."""
        tied, wait_us = grant
        started: List[tuple] = []
        for slot in tied:
            agg = slot.hw.pop()
            if agg is not None:
                txop = (slot, agg, wait_us)
                started.append(txop)
                self._inflight.append(txop)
        if not started:
            self._busy = False
            self.notify_backlog()
            return
        if len(started) == 1:
            # Everyone else's frames evaporated: a normal transmission.
            txop = started[0]
            self.sim.schedule_call(txop[1].duration_us, self._complete, txop)
            return
        self.collision_count += 1
        duration = max(agg.duration_us for _, agg, _ in started)
        self.sim.schedule_call(duration, self._finish_collision,
                               (started, wait_us, duration))

    def _finish_collision(self, collision: tuple) -> None:
        started, wait_us, duration = collision
        self.busy_time_us += duration + wait_us
        self._busy = False
        for txop in started:
            slot, agg, _ = txop
            self._inflight.remove(txop)
            self._beb_on_collision(slot.contender, agg.ac)
            record = TransmissionRecord(
                self.sim.now - duration - wait_us, agg.duration_us + wait_us,
                agg.duration_us, agg.station, slot.is_ap, agg.n_packets,
                agg.payload_bytes, agg.ac, False, agg.retries, agg.seq,
                slot.bss,
            )
            slot.contender.txop_complete(agg, False)
            for observer in self._observers:
                observer(record)
        self.notify_backlog()
