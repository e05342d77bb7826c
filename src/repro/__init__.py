"""String Figure: a scalable and elastic memory network architecture.

A from-scratch Python reproduction of the HPCA 2019 paper by Ogleari,
Yu, Qian, Miller, and Zhao.  The package implements the paper's three
contributions — the balanced random multi-space topology, the hybrid
compute+table greediest routing protocol, and the elastic network
reconfiguration mechanisms — together with every substrate the paper's
evaluation depends on: a discrete-event memory-network simulator, the
baseline topologies (mesh, flattened butterfly, S2, Jellyfish), the
synthetic traffic patterns, trace-driven workload models with a cache
hierarchy, DRAM timing, and a dynamic-energy/power-gating model.

Quickstart::

    from repro import StringFigureTopology, GreediestRouting
    topo = StringFigureTopology(num_nodes=128, num_ports=4, seed=1)
    routing = GreediestRouting(topo)
    result = routing.route(src=0, dst=77)
    print(result.path)
"""

from repro.core.coordinates import (
    CoordinateSystem,
    circular_distance,
    clockwise_distance,
    min_circular_distance,
)
from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import AdaptiveGreediestRouting, GreediestRouting
from repro.core.topology import LinkDirection, S2Topology, StringFigureTopology
from repro.network.config import NetworkConfig
from repro.network.elastic import LiveReconfigurator
from repro.network.simulator import NetworkSimulator
from repro.topologies.registry import make_policy, make_topology

__all__ = [
    "AdaptiveGreediestRouting",
    "CoordinateSystem",
    "GreediestRouting",
    "LinkDirection",
    "LiveReconfigurator",
    "NetworkConfig",
    "NetworkSimulator",
    "ReconfigurationManager",
    "S2Topology",
    "StringFigureTopology",
    "circular_distance",
    "clockwise_distance",
    "make_policy",
    "make_topology",
    "min_circular_distance",
]

__version__ = "1.0.0"
