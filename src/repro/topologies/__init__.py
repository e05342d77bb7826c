"""Baseline topologies evaluated against String Figure (paper Figure 8)."""

from repro.topologies.base import BaseTopology, grid_dimensions
from repro.topologies.flattened_butterfly import (
    AdaptedFlattenedButterflyTopology,
    FlattenedButterflyTopology,
)
from repro.topologies.jellyfish import JellyfishTopology
from repro.topologies.mesh import MeshTopology, OptimizedMeshTopology
from repro.topologies.registry import (
    TOPOLOGY_NAMES,
    figure8_ports,
    make_policy,
    make_topology,
)

__all__ = [
    "AdaptedFlattenedButterflyTopology",
    "BaseTopology",
    "FlattenedButterflyTopology",
    "JellyfishTopology",
    "MeshTopology",
    "OptimizedMeshTopology",
    "TOPOLOGY_NAMES",
    "figure8_ports",
    "grid_dimensions",
    "make_policy",
    "make_topology",
]
