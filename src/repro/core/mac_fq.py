"""The paper's integrated per-TID queueing structure (Algorithms 1 and 2).

One :class:`MacFqStructure` instance replaces the qdisc layer and the
driver's per-TID FIFOs for the FQ-MAC and Airtime configurations (Figure 3):

* a fixed global pool of flow queues is shared by *all* TIDs — a queue is
  assigned to the TID of the first packet hashed into it and released when
  it drains (Algorithm 1 lines 5–8, Algorithm 2 line 18);
* hash collisions across TIDs fall back to a TID-specific overflow queue;
* one global packet limit covers the whole structure, and overflow drops
  from the globally longest queue, which is what keeps a slow station from
  locking out everyone else's queue space (Section 4.1.2);
* dequeueing within a TID is FQ-CoDel's DRR with the sparse-flow (new
  queue) optimisation, with CoDel applied per queue using per-station
  parameters (Section 3.1.1).
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Callable, Dict, Iterable, Optional

from repro.core.codel import PerStationCoDelTuner, codel_dequeue
from repro.core.fq_codel import (
    DEFAULT_QUANTUM_BYTES,
    HASH_MULT,
    FlowQueue,
    TidState,
)
from repro.core.packet import Packet

__all__ = ["MacFqStructure", "IntegratedStack", "DEFAULT_GLOBAL_LIMIT",
           "DEFAULT_NUM_QUEUES"]

#: Global packet limit of the mac80211 structure (Figure 3: 8192).
DEFAULT_GLOBAL_LIMIT = 8192
#: Number of flow queues in the shared pool (mac80211 uses 4096).
DEFAULT_NUM_QUEUES = 4096

DropCallback = Callable[[Packet, str], None]


class FirstUse(dict):
    """``d[key]`` computes ``make(*key)`` the first time ``key`` is used."""

    def __init__(self, make: Callable) -> None:
        super().__init__()
        self._make = make

    def __missing__(self, key):
        value = self[key] = self._make(*key)
        return value


class MacFqStructure:
    """Shared-pool per-TID FQ-CoDel (the paper's Algorithms 1 and 2).

    Parameters
    ----------
    now_fn:
        Returns the current time in µs (CoDel needs timestamps).
    num_queues, limit, quantum:
        Pool size, global packet limit, and DRR quantum in bytes.
    codel_tuner:
        Supplies per-station CoDel parameters; defaults to stock CoDel
        everywhere.
    on_drop:
        Called for every dropped packet with a reason ('overlimit' or
        'codel'), so experiments and transports can observe losses.
    """

    def __init__(
        self,
        now_fn: Callable[[], float],
        num_queues: int = DEFAULT_NUM_QUEUES,
        limit: int = DEFAULT_GLOBAL_LIMIT,
        quantum: int = DEFAULT_QUANTUM_BYTES,
        codel_tuner: Optional[PerStationCoDelTuner] = None,
        on_drop: Optional[DropCallback] = None,
    ) -> None:
        if num_queues <= 0 or limit <= 0 or quantum <= 0:
            raise ValueError("num_queues, limit and quantum must be positive")
        self._now = now_fn
        self.limit = limit
        self.quantum = quantum
        self.codel_tuner = codel_tuner or PerStationCoDelTuner(enabled=False)
        self.on_drop = on_drop

        self._queues = [FlowQueue(i) for i in range(num_queues)]
        #: (station, ac) -> TidState, created at the first *use* of the
        #: key: longest-queue ties break by TID creation order, so when a
        #: TID is first asked for decides which packet an overlimit drop
        #: takes.  Never deleted: a station that roams back finds them.
        self._tids: Dict[tuple, TidState] = FirstUse(self._new_tid)
        self._overflow_counter = 0

        #: Total packets queued across every TID (the "global limit" gauge).
        self.backlog_packets = 0
        #: Drop counters by reason.
        self.drops_overlimit = 0
        self.drops_codel = 0
        #: Packets discarded by an explicit flush (station churn).
        self.drops_flushed = 0

        # Prebound trace emitters (see set_trace); None when tracing is
        # off, so every emit site is a single identity test.
        self._em_enqueue = None
        self._em_flow_new = None
        self._em_dequeue = None
        self._em_flow_reclaim = None
        self._em_flush = None
        self._em_codel_state = None
        self._sojourn_hist = None

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def set_trace(self, trace, metrics=None, layer: str = "mac",
                  now_fn=None) -> None:
        """Attach a trace bus / metrics registry to this structure.

        ``layer`` labels the emitted records ('mac' for the integrated
        structure, 'qdisc' when wrapped by
        :class:`repro.qdisc.fq_codel_qdisc.FqCodelQdisc`).  ``trace=None``
        detaches: every emitter, CoDel hook and histogram is reset.
        ``now_fn`` is ignored (the structure has its clock already); it is
        accepted so every queue stack under the AP takes the same call.
        """
        queue_ch = trace.channel("queue") if trace is not None else None
        codel_ch = trace.channel("codel") if trace is not None else None
        self._em_enqueue = self._em_flow_new = self._em_dequeue = None
        self._em_flow_reclaim = self._em_flush = self._em_codel_state = None
        if queue_ch is not None:
            # Record shapes, declared once: ``layer`` is fixed per
            # structure, ``station`` is None under the qdisc wrapper
            # (hence 'o'), overflow queues have negative ``q``.
            layer_c = ("layer", "c", layer)
            self._em_enqueue = queue_ch.emitter("enqueue", (
                layer_c, ("station", "o"), ("flow", "q"), ("pid", "q"),
                ("q", "q"), ("backlog", "q"),
            ))
            self._em_flow_new = queue_ch.emitter("flow_new", (
                layer_c, ("station", "o"), ("flow", "q"), ("q", "q"),
            ))
            self._em_dequeue = queue_ch.emitter("dequeue", (
                layer_c, ("station", "o"), ("pid", "q"), ("q", "q"),
                ("sojourn_us", "d"),
            ))
            self._em_flow_reclaim = queue_ch.emitter("flow_reclaim", (
                layer_c, ("station", "o"), ("q", "q"),
            ))
            self._em_flush = queue_ch.emitter("flush", (
                layer_c, ("station", "o"), ("n_pkts", "q"),
            ))
        if codel_ch is not None:
            self._em_codel_state = codel_ch.emitter("state", (
                ("kind", "s"), ("q", "q"), ("station", "o"),
            ))
        self._sojourn_hist = (
            metrics.histogram(f"{layer}_sojourn_us")
            if metrics is not None else None
        )
        traced = self._em_codel_state is not None
        for queue in chain(self._queues,
                           (tid.overflow_queue for tid in self._tids.values())):
            queue.codel.on_transition = (
                self._codel_hook(queue) if traced else None
            )

    def _codel_hook(self, queue: FlowQueue):
        emit = self._em_codel_state

        def on_transition(kind: str, now_us: float) -> None:
            tid = queue.tid
            station = tid.station if isinstance(tid, TidState) else None
            emit(now_us, kind, queue.index, station)

        return on_transition

    # ------------------------------------------------------------------
    # TID management
    # ------------------------------------------------------------------
    def tid(self, station: Optional[int], ac: object) -> TidState:
        """Return (creating on first use) the TID for ``(station, ac)``."""
        return self._tids[station, ac]

    def _new_tid(self, station: Optional[int], ac: object) -> TidState:
        # Overflow queues live outside the hashed pool; give them
        # negative indices so they can't collide with pool queues.
        self._overflow_counter += 1
        overflow = FlowQueue(-self._overflow_counter)
        if self._em_codel_state is not None:
            overflow.codel.on_transition = self._codel_hook(overflow)
        return TidState(station, ac, overflow)

    def tids(self) -> Iterable[TidState]:
        return self._tids.values()

    # ------------------------------------------------------------------
    # Algorithm 1: enqueue
    # ------------------------------------------------------------------
    def enqueue(self, pkt: Packet, tid: TidState) -> None:
        """Enqueue ``pkt`` for ``tid`` (Algorithm 1)."""
        if self.backlog_packets >= self.limit:
            self._drop_from_longest_queue()

        # ``hash_flow`` and ``FlowQueue.append`` inline (once per arrival;
        # not memoised per flow: web workloads mint flow ids unboundedly).
        queues = self._queues
        queue = queues[((pkt.flow_id * HASH_MULT) & 0xFFFFFFFF) % len(queues)]
        if queue.tid is not None and queue.tid is not tid:
            queue = tid.overflow_queue
        queue.tid = tid

        pkt.enqueue_us = self._now()
        queue.pkts.append(pkt)
        queue.byte_backlog += pkt.size
        tid.backlog += 1
        self.backlog_packets += 1

        if self._em_enqueue is not None:
            self._em_enqueue(pkt.enqueue_us, tid.station, pkt.flow_id,
                             pkt.pid, queue.index, self.backlog_packets)

        if queue.membership is None:
            # A (re)activating queue starts with a fresh quantum, as in
            # Linux fq_codel — without this the new-queue priority of the
            # sparse-flow optimisation would be consumed by the deficit
            # top-up loop before the queue is ever served.
            queue.deficit = self.quantum
            tid.add_new(queue)
            if self._em_flow_new is not None:
                self._em_flow_new(pkt.enqueue_us, tid.station, pkt.flow_id,
                                  queue.index)

    def _drop_from_longest_queue(self) -> None:
        """Drop the head packet of the globally longest queue."""
        longest: Optional[FlowQueue] = None
        for tid in self._tids.values():
            for queue in tid.new_queues:
                if longest is None or len(queue) > len(longest):
                    longest = queue
            for queue in tid.old_queues:
                if longest is None or len(queue) > len(longest):
                    longest = queue
        if longest is None or not longest.pkts:  # pragma: no cover
            return
        pkt = longest.pop_head()
        assert pkt is not None
        self._account_drop(longest, pkt, "overlimit")

    def _account_drop(self, queue: FlowQueue, pkt: Packet, reason: str) -> None:
        tid = queue.tid
        assert isinstance(tid, TidState)
        tid.backlog -= 1
        self.backlog_packets -= 1
        if reason == "overlimit":
            self.drops_overlimit += 1
        elif reason == "codel":
            self.drops_codel += 1
        else:
            self.drops_flushed += 1
        # Drop *records* are emitted by the unified DropReporter funnel
        # (repro.core.drops), not here — on_drop chains up to it.
        if self.on_drop is not None:
            self.on_drop(pkt, reason)

    # ------------------------------------------------------------------
    # Algorithm 2: dequeue
    # ------------------------------------------------------------------
    def dequeue(self, tid: TidState) -> Optional[Packet]:
        """Dequeue one packet from ``tid`` (Algorithm 2), or ``None``.

        CoDel's two steady states are evaluated inline, because a
        saturated queue spends nearly every dequeue in one of them: *not
        dropping and not due to start* (RFC 8289 ``dodequeue``), and
        *dropping, next drop not due yet*.  In both the head packet is
        delivered and only ``first_above_time`` can move.  Everything
        else goes through :func:`codel_dequeue`, the one state machine.
        """
        now = self._now()
        params = self.codel_tuner.params_for(tid.station)
        target_us = params.target_us
        new_queues = tid.new_queues
        old_queues = tid.old_queues
        while True:
            # Algorithm 2 lines 2-7: new queues before old ones.
            if new_queues:
                queue = new_queues[0]
            elif old_queues:
                queue = old_queues[0]
            else:
                return None

            if queue.deficit <= 0:
                queue.deficit += self.quantum
                if new_queues:
                    tid.move_to_old(queue)
                else:
                    # Head of old to tail of old: a rotation.
                    old_queues.rotate(-1)
                continue

            pkts = queue.pkts
            codel = queue.codel
            deliver_head = False
            if pkts:
                above = now - pkts[0].enqueue_us >= target_us
                first_above = codel.first_above_time_us
                if codel.dropping:
                    deliver_head = (above and first_above != 0.0
                                    and first_above <= now < codel.drop_next_us)
                elif not above:
                    codel.first_above_time_us = 0.0
                    deliver_head = True
                elif first_above == 0.0:
                    codel.first_above_time_us = now + params.interval_us
                    deliver_head = True
                else:
                    deliver_head = now < first_above
            if deliver_head:
                pkt = pkts.popleft()
                queue.byte_backlog -= pkt.size
            else:
                pkt = codel_dequeue(
                    queue, codel, now, params,
                    on_drop=lambda p, q=queue: self._account_drop(q, p, "codel"),
                )
                if pkt is None:
                    # Queue emptied: a new queue gets one pass through
                    # the old list before deletion (the anti-gaming rule
                    # FQ-CoDel applies to its sparse-flow optimisation).
                    if queue.membership == "new":
                        tid.move_to_old(queue)
                    else:
                        tid.delete_queue(queue)
                        if self._em_flow_reclaim is not None:
                            self._em_flow_reclaim(now, tid.station,
                                                  queue.index)
                    continue

            queue.deficit -= pkt.size
            tid.backlog -= 1
            self.backlog_packets -= 1
            if self._em_dequeue is not None:
                self._em_dequeue(now, tid.station, pkt.pid, queue.index,
                                 now - pkt.enqueue_us)
            if self._sojourn_hist is not None:
                self._sojourn_hist.observe(now - pkt.enqueue_us)
            return pkt

    # ------------------------------------------------------------------
    # Flush (station churn)
    # ------------------------------------------------------------------
    def flush_tid(self, tid: TidState, reason: str = "detach") -> int:
        """Drop every packet queued for ``tid``, returning the count.

        Used when a station detaches mid-run: its queues are emptied
        through the normal drop path (so the unified funnel and the
        conservation audit both see the packets) and the flow queues it
        occupied return to the idle pool for other TIDs to claim.
        """
        flushed = 0
        for queue in list(tid.new_queues) + list(tid.old_queues):
            while True:
                pkt = queue.pop_head()
                if pkt is None:
                    break
                self._account_drop(queue, pkt, reason)
                flushed += 1
            tid.delete_queue(queue)
        if self._em_flush is not None and flushed:
            self._em_flush(self._now(), tid.station, flushed)
        return flushed

    def flush_station(self, station: int, reason: str = "detach") -> int:
        """Flush every TID belonging to ``station`` (all ACs)."""
        return sum(
            self.flush_tid(tid, reason)
            for tid in list(self._tids.values())
            if tid.station == station
        )

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def total_drops(self) -> int:
        return self.drops_overlimit + self.drops_codel + self.drops_flushed


class IntegratedStack(MacFqStructure):
    """The structure as the AP's queue stack (FQ-MAC, Airtime; the
    protocol is :class:`repro.mac.ap.SchemeDescriptor`).  Every AC, VO
    included, is an ordinary TID, and an enqueued packet is schedulable
    at once: there is no layer above to refill from."""

    #: Nothing above the TIDs for :meth:`refill` to pull from.
    hungry = False

    def __init__(self, sim, config, drops, codel_tuner) -> None:
        super().__init__(partial(getattr, sim, "now"),  # C-level: no frame
                         limit=config.mac_fq_limit, codel_tuner=codel_tuner,
                         on_drop=drops.callback("mac"))

    def enqueue_for(self, station: int, ac: object) -> Callable:
        # Not partial(self.enqueue, tid=...): binding a keyword costs
        # ~300 ns a call, this frame with two defaults ~30.
        def sink(pkt, enqueue=self.enqueue, tid=self._tids[station, ac]):
            enqueue(pkt, tid)
        return sink

    def dequeue_for(self, station: int, ac: object) -> Callable:
        return partial(self.dequeue, self._tids[station, ac])

    def station_backlog(self, station: int, ac: object) -> int:
        return self._tids[station, ac].backlog

    def refill(self, arrival: Optional[int] = None) -> tuple:
        return () if arrival is None else (arrival,)

    def admit_station(self, station: int) -> None:
        """Nothing to undo: a flush leaves no residue above the TIDs."""

    def resident(self) -> int:
        return self.backlog_packets

    def samples(self, prefix: str, by_station: bool = False) -> dict:
        return {}
