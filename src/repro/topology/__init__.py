"""Topology layer: declarative scenarios and the testbed that runs them.

``spec`` describes topologies (BSSes, channels, station placement,
roaming/churn schedules) and ``campus`` realises one as a running
simulation of any number of cells.
"""

from repro.topology.campus import (
    BssStack,
    CampusOptions,
    CampusTestbed,
    TestbedOptions,
)
from repro.topology.spec import BssSpec, RoamEvent, Topology, campus_topology

__all__ = [
    "BssSpec",
    "BssStack",
    "CampusOptions",
    "CampusTestbed",
    "RoamEvent",
    "TestbedOptions",
    "Topology",
    "campus_topology",
]
