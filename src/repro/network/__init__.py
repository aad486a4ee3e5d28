"""Interconnect substrate: topologies, contention resources, fabric model."""

from .crossbar import CrossbarSwitch, MultistageCrossbar
from .fattree import FatTree
from .hypercube import Hypercube
from .netmodel import Fabric, FabricParams, MessageTiming
from .resources import BandwidthResource, reserve_route
from .topology import Topology
from .torus import Torus3D, balanced_dims

__all__ = [
    "Topology",
    "Torus3D",
    "balanced_dims",
    "FatTree",
    "Hypercube",
    "CrossbarSwitch",
    "MultistageCrossbar",
    "Fabric",
    "FabricParams",
    "MessageTiming",
    "BandwidthResource",
    "reserve_route",
]
