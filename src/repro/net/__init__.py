"""Wired-network substrate: the server and the GbE hop to the AP(s)."""

from repro.net.wire import DEFAULT_WIRE_DELAY_US, Network, Server

__all__ = ["DEFAULT_WIRE_DELAY_US", "Network", "Server"]
