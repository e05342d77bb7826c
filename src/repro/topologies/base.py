"""Common interface for baseline memory-network topologies.

Every topology — String Figure included — exposes the same minimal
surface to the analysis and simulation layers:

* ``num_nodes`` / ``active_nodes`` / ``is_active``: the node set;
* ``neighbors(v)``: active adjacency;
* ``graph()``: a NetworkX view for path/bisection analysis;
* ``radix``: network ports per router (excluding the terminal port),
  the hardware-cost axis of the paper's Table II;
* ``make_policy()``: the routing scheme the paper pairs with the
  topology (Figure 8's "Routing Scheme" column).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import networkx as nx

from repro.network.policies import MinimalPolicy, RoutingPolicy

__all__ = ["BaseTopology"]


class BaseTopology(ABC):
    """A static baseline topology over ``num_nodes`` memory nodes."""

    name: str = "base"
    #: Whether the design can reconfigure (down-scale) a deployed network.
    reconfigurable: bool = False
    #: Whether router radix must grow with network scale (Table II).
    radix_scales_with_n: bool = False

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 2:
            raise ValueError(f"num_nodes must be >= 2, got {num_nodes}")
        self.num_nodes = num_nodes
        self._graph: nx.Graph | None = None

    # -- node set ------------------------------------------------------------

    #: Changes to the active set so far (String Figure counts its
    #: ``set_node_active`` calls); a baseline's never changes.
    activation_changes = 0

    @property
    def active_nodes(self) -> list[int]:
        """Baselines have no power gating: every node is active."""
        return list(range(self.num_nodes))

    def is_active(self, node: int) -> bool:
        return 0 <= node < self.num_nodes

    # -- structure -----------------------------------------------------------

    @abstractmethod
    def build_graph(self) -> nx.Graph:
        """Construct the interconnect graph (called once, then cached)."""

    def graph(self) -> nx.Graph:
        """The (cached) interconnect graph."""
        if self._graph is None:
            self._graph = self.build_graph()
        return self._graph

    def neighbors(self, node: int) -> list[int]:
        g = self.graph()
        if g.is_directed():
            return sorted(g.successors(node))
        return sorted(g.neighbors(node))

    @property
    def radix(self) -> int:
        """Maximum network ports used by any router."""
        g = self.graph()
        return max(dict(g.degree()).values())

    def link_channels(self, u: int, v: int) -> int:
        """Parallel physical channels per link (ODM overrides this)."""
        return 1

    # -- routing -----------------------------------------------------------------

    def make_policy(self, adaptive: bool = True) -> RoutingPolicy:
        """The routing scheme evaluated with this topology."""
        return MinimalPolicy(self.graph(), adaptive=adaptive)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(num_nodes={self.num_nodes})"
