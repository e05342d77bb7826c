"""The paper's primary contribution.

* :mod:`repro.core.coordinates` — circular distances and balanced
  coordinate generation (paper Figure 4b).
* :mod:`repro.core.topology` — the String Figure balanced random
  topology and the S2 baseline variant (paper §III-A, Figure 4a).
* :mod:`repro.core.shortcuts` — 2-/4-hop clockwise shortcut generation
  (paper Figure 3c).
* :mod:`repro.core.routing_table` — the per-router 1-/2-hop neighbor
  table's storage accounting (paper Figure 6b).
* :mod:`repro.core.routing` — greediest and adaptive greediest routing
  (paper §III-B).
* :mod:`repro.core.virtual_channels` — two-VC deadlock avoidance
  (paper §IV-A).
* :mod:`repro.core.reconfig` — dynamic and static network
  reconfiguration (paper §III-C).
* :mod:`repro.core.topology_switch` — the MUX-based topology switch
  (paper Figure 7).
"""

from repro.core.coordinates import (
    CoordinateSystem,
    circular_distance,
    clockwise_distance,
    min_circular_distance,
)
from repro.core.routing import AdaptiveGreediestRouting, GreediestRouting
from repro.core.topology import S2Topology, StringFigureTopology

__all__ = [
    "AdaptiveGreediestRouting",
    "CoordinateSystem",
    "GreediestRouting",
    "S2Topology",
    "StringFigureTopology",
    "circular_distance",
    "clockwise_distance",
    "min_circular_distance",
]
