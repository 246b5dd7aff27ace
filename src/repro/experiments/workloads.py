"""Reusable traffic compositions for the evaluation scenarios.

Each helper attaches flows to a built :class:`Testbed`, returning the
flow objects for measurement.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.config import (
    UDP_SATURATION_BPS_FAST,
    UDP_SATURATION_BPS_SLOW,
)
from repro.experiments.testbed import Testbed
from repro.phy.rates import PhyRate
from repro.traffic.ping import PingFlow
from repro.traffic.tcp import TcpConnection
from repro.traffic.udp import UdpDownloadFlow

__all__ = [
    "saturating_udp_download",
    "tcp_download",
    "tcp_bidir",
    "add_pings",
    "udp_rate_for",
]

#: Rates below this are "slow" for workload sizing purposes.
_SLOW_THRESHOLD_BPS = 30_000_000.0


def udp_rate_for(rate: PhyRate) -> float:
    """Offered saturating UDP rate appropriate for a station's PHY rate."""
    if rate.bps < _SLOW_THRESHOLD_BPS:
        return min(UDP_SATURATION_BPS_SLOW, rate.bps * 4)
    return UDP_SATURATION_BPS_FAST


def saturating_udp_download(
    testbed: Testbed,
    stations: Optional[Sequence[int]] = None,
) -> Dict[int, UdpDownloadFlow]:
    """One saturating downstream UDP flow per station."""
    targets = stations if stations is not None else sorted(testbed.stations)
    flows: Dict[int, UdpDownloadFlow] = {}
    for idx in targets:
        station = testbed.stations[idx]
        flow = UdpDownloadFlow(
            testbed.sim,
            testbed.server,
            station,
            rate_bps=udp_rate_for(station.rate),
        ).start(delay_us=float(idx))  # tiny stagger avoids phase lock
        flows[idx] = flow
    return flows


def tcp_download(
    testbed: Testbed,
    stations: Optional[Sequence[int]] = None,
) -> Dict[int, TcpConnection]:
    """One bulk TCP download per station."""
    targets = stations if stations is not None else sorted(testbed.stations)
    conns: Dict[int, TcpConnection] = {}
    for idx in targets:
        conns[idx] = TcpConnection(
            testbed.sim, testbed.server, testbed.stations[idx], direction="down"
        ).start(delay_us=float(idx))
    return conns


def tcp_bidir(
    testbed: Testbed,
    stations: Optional[Sequence[int]] = None,
) -> Dict[int, Dict[str, TcpConnection]]:
    """Simultaneous bulk TCP download and upload per station."""
    targets = stations if stations is not None else sorted(testbed.stations)
    conns: Dict[int, Dict[str, TcpConnection]] = {}
    for idx in targets:
        down = TcpConnection(
            testbed.sim, testbed.server, testbed.stations[idx], direction="down"
        ).start(delay_us=float(idx))
        up = TcpConnection(
            testbed.sim, testbed.server, testbed.stations[idx], direction="up"
        ).start(delay_us=500.0 + idx)
        conns[idx] = {"down": down, "up": up}
    return conns


def add_pings(
    testbed: Testbed,
    stations: Optional[Sequence[int]] = None,
    interval_us: float = 100_000.0,
) -> Dict[int, PingFlow]:
    """A ping flow per station, staggered to avoid probe synchronisation."""
    targets = stations if stations is not None else sorted(testbed.stations)
    telemetry = testbed.telemetry
    observer = (
        telemetry.streaming.observe_rtt
        if telemetry is not None and telemetry.streaming is not None
        else None
    )
    flows: Dict[int, PingFlow] = {}
    for i, idx in enumerate(targets):
        flows[idx] = PingFlow(
            testbed.sim, testbed.server, testbed.stations[idx],
            interval_us=interval_us, observer=observer,
        ).start(delay_us=1_000.0 * (i + 1))
    return flows
