"""Legacy driver buffering — the unmanaged queues below the qdisc.

The stock ath9k driver keeps a FIFO per TID (``buf_q`` in Figure 2) and
pulls frames down from the qdisc whenever it has room.  The total room is
*shared*: once overall driver occupancy hits the limit, nothing more is
pulled — so a slow station, whose queue drains at a fraction of the fast
stations' rate, ends up owning nearly all of the space.  This is the
mechanism behind both residual bufferbloat under an FQ-CoDel qdisc
(Section 2.1) and the aggregation starvation of fast stations
(Section 4.1.2, "there are not enough packets queued to build sufficiently
large aggregates").

Only the FIFO and FQ-CoDel configurations use this module, as
:class:`QdiscStack`; FQ-MAC and Airtime replace it (and the qdisc) with
:class:`repro.core.mac_fq.IntegratedStack`.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.core.packet import AccessCategory, Packet
from repro.qdisc.base import DropCallback, Qdisc
from repro.qdisc.fq_codel_qdisc import FqCodelQdisc
from repro.qdisc.pfifo import PfifoQdisc

__all__ = ["LegacyDriver", "QdiscStack", "DEFAULT_DRIVER_LIMIT"]

#: Shared driver buffer space in frames.  Calibrated so the slow station
#: monopolising it reproduces the paper's lower-layer effects: residual
#: latency under an FQ-CoDel qdisc (a slow station's frames draining at a
#: few hundred packets/s add tens-to-hundreds of ms the qdisc cannot see,
#: Figure 4) and the aggregation starvation of fast stations in the FIFO
#: case (~4–7 packet aggregates, Table 1).
DEFAULT_DRIVER_LIMIT = 32


class LegacyDriver:
    """Per-TID FIFOs with a shared frame limit, fed by a qdisc."""

    def __init__(self, qdisc: Qdisc, limit: int = DEFAULT_DRIVER_LIMIT,
                 on_drop: Optional[DropCallback] = None) -> None:
        if limit <= 0:
            raise ValueError("limit must be positive")
        self.qdisc = qdisc
        self.limit = limit
        self.on_drop = on_drop
        self._queues: Dict[Tuple[int, AccessCategory], Deque[Packet]] = {}
        self.backlog = 0
        #: ``backlog < limit``, kept current wherever ``backlog`` moves:
        #: the AP's per-arrival "would a pull do anything?" is one read.
        self.hungry = True
        #: Stations flushed and not admitted back since: what the qdisc
        #: still holds for them is dropped on its way down, not buffered.
        self._gone: Set[int] = set()

        # Telemetry (None when disabled).
        self._now = None
        self._em_pull = self._em_dequeue = None

    # ------------------------------------------------------------------
    def set_trace(self, trace, now_fn=None) -> None:
        """Attach a trace bus; ``now_fn`` supplies emit timestamps."""
        channel = trace.channel("driver") if trace is not None else None
        self._now = now_fn
        self._em_pull = self._em_dequeue = None
        if channel is not None:
            self._em_pull = channel.emitter("pull", (
                ("pulled", "q"), ("backlog", "q"),
            ))
            self._em_dequeue = channel.emitter("dequeue", (
                ("station", "q"), ("pid", "q"),
            ))

    # ------------------------------------------------------------------
    def pull(self) -> List[int]:
        """Pull frames from the qdisc while there is room.

        Returns the stations that received new frames, so the AP can wake
        them in the scheduler.  Frames for a station that is gone (see
        :meth:`flush_station`) are dropped: buffered, they would never
        leave, and ``limit`` of them lock every other station out.
        """
        woken: List[int] = []
        pulled = 0
        backlog = self.backlog
        limit = self.limit
        dequeue = self.qdisc.dequeue
        queues = self._queues
        gone = self._gone
        while backlog < limit:
            pkt = dequeue()
            if pkt is None:
                break
            dst = pkt.dst_station
            if dst in gone:
                self.on_drop(pkt, "detach")
                continue
            key = (dst, pkt.ac)
            queue = queues.get(key)
            if queue is None:
                queue = queues[key] = deque()
            queue.append(pkt)
            backlog += 1
            pulled += 1
            if dst not in woken:
                woken.append(dst)
        self.backlog = backlog
        self.hungry = backlog < limit
        if pulled and self._em_pull is not None:
            self._em_pull(self._now() if self._now is not None else 0.0,
                          pulled, backlog)
        return woken

    def dequeue(self, station: int, ac: AccessCategory) -> Optional[Packet]:
        queue = self._queues.get((station, ac))
        if not queue:
            return None
        self.backlog -= 1
        self.hungry = True
        pkt = queue.popleft()
        if self._em_dequeue is not None:
            # Per-packet record: span reconstruction measures the driver
            # FIFO wait as t(driver dequeue) - t(qdisc dequeue).
            self._em_dequeue(self._now() if self._now is not None else 0.0,
                             station, pkt.pid)
        return pkt

    def station_backlog(self, station: int, ac: AccessCategory) -> int:
        queue = self._queues.get((station, ac))
        return len(queue) if queue else 0

    def flush_station(self, station: int) -> int:
        """Drop every buffered frame destined to ``station``; returns how
        many.

        Station churn: the detaching station's per-TID FIFOs are emptied
        through ``on_drop`` (reason ``detach``).  What the qdisc above
        still holds for it is not searched for: :meth:`pull` drops it the
        same way as it comes down, until :meth:`admit_station`.
        """
        self._gone.add(station)
        flushed = 0
        for (st, _ac), queue in self._queues.items():
            if st == station:
                flushed += len(queue)
                while queue:
                    self.on_drop(queue.popleft(), "detach")
        self.backlog -= flushed
        self.hungry = self.backlog < self.limit
        return flushed

    def admit_station(self, station: int) -> None:
        """``station`` (re)joined: buffer its frames again."""
        self._gone.discard(station)

    def occupancy_by_station(self) -> Dict[int, int]:
        """Frames buffered per station (diagnostics for the lock-out)."""
        out: Dict[int, int] = {}
        for (station, _ac), queue in self._queues.items():
            out[station] = out.get(station, 0) + len(queue)
        return out


class QdiscStack(LegacyDriver):
    """A qdisc above the legacy driver as the AP's queue stack (FIFO,
    FQ-CoDel; the protocol is :class:`repro.mac.ap.SchemeDescriptor`).

    Data ACs enter the qdisc and become schedulable only when
    :meth:`refill` pulls them into the driver; VO bypasses both through
    short unmanaged per-station queues.
    """

    def __init__(self, sim, qdisc: Qdisc, config, drops) -> None:
        super().__init__(qdisc, config.driver_limit,
                         on_drop=drops.callback("mac"))
        self._sim = sim
        self._vo: Dict[int, Deque[Packet]] = defaultdict(deque)
        self._em_vo_enqueue = self._em_vo_dequeue = None

    @classmethod
    def pfifo(cls, sim, config, drops, codel_tuner) -> "QdiscStack":
        qdisc = PfifoQdisc(config.txqueuelen, on_drop=drops.callback("qdisc"))
        return cls(sim, qdisc, config, drops)

    @classmethod
    def fq_codel(cls, sim, config, drops, codel_tuner) -> "QdiscStack":
        qdisc = FqCodelQdisc(partial(getattr, sim, "now"),
                             on_drop=drops.callback("qdisc"))
        return cls(sim, qdisc, config, drops)

    def set_trace(self, trace, now_fn=None, metrics=None) -> None:
        self.qdisc.set_trace(trace, now_fn=now_fn, metrics=metrics)
        super().set_trace(trace, now_fn=now_fn)
        channel = trace.channel("queue") if trace is not None else None
        self._em_vo_enqueue = self._em_vo_dequeue = None
        if channel is not None:
            self._em_vo_enqueue = channel.emitter("enqueue", (
                ("layer", "c", "vo"), ("station", "q"), ("flow", "q"),
                ("pid", "q"), ("backlog", "q"),
            ))
            self._em_vo_dequeue = channel.emitter("dequeue", (
                ("layer", "c", "vo"), ("station", "q"), ("pid", "q"),
                ("sojourn_us", "d"),
            ))

    # ------------------------------------------------------------------
    def enqueue_for(self, station: int, ac: AccessCategory) -> Callable:
        if ac is AccessCategory.VO:
            return partial(self._enqueue_vo, station, self._vo[station])
        return self.qdisc.enqueue

    def dequeue_for(self, station: int, ac: AccessCategory) -> Callable:
        if ac is AccessCategory.VO:
            return partial(self._dequeue_vo, station, self._vo[station])
        return partial(self.dequeue, station, ac)

    def _enqueue_vo(self, station: int, queue: Deque[Packet],
                    pkt: Packet) -> None:
        pkt.enqueue_us = self._sim.now
        queue.append(pkt)
        if self._em_vo_enqueue is not None:
            self._em_vo_enqueue(pkt.enqueue_us, station, pkt.flow_id,
                                pkt.pid, len(queue))

    def _dequeue_vo(self, station: int,
                    queue: Deque[Packet]) -> Optional[Packet]:
        if not queue:
            return None
        pkt = queue.popleft()
        if self._em_vo_dequeue is not None:
            now = self._sim.now
            self._em_vo_dequeue(now, station, pkt.pid, now - pkt.enqueue_us)
        return pkt

    def station_backlog(self, station: int, ac: AccessCategory) -> int:
        queue = (self._vo[station] if ac is AccessCategory.VO
                 else self._queues.get((station, ac)))
        return len(queue) if queue else 0

    def refill(self, arrival: Optional[int] = None) -> List[int]:
        return self.pull()

    def flush_station(self, station: int) -> int:
        flushed = super().flush_station(station)
        queue = self._vo[station]
        flushed += len(queue)
        while queue:
            self.on_drop(queue.popleft(), "detach")
        return flushed

    def resident(self) -> int:
        return (self.qdisc.backlog_packets + self.backlog
                + sum(len(queue) for queue in self._vo.values()))

    def samples(self, prefix: str, by_station: bool = False) -> dict:
        if not by_station:
            return {f"{prefix}driver_backlog": self.backlog}
        return {f"{prefix}driver_occupancy.{station}": n
                for station, n in self.occupancy_by_station().items()}
