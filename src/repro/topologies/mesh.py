"""Distributed mesh baselines: DM and the bandwidth-matched ODM.

The paper's strongest traditional-memory-network baseline is the
distributed mesh of Kim et al. (PACT 2013), evaluated as:

* **DM** — a plain 2D mesh over an ``a x b`` grid of memory nodes with
  dimension-order (XY) primary routing plus minimal-adaptive diversion
  ("greedy + adaptive" in Figure 8).  Router radix stays at 4, but hop
  count grows with ``(a + b) / 3``.
* **ODM** — the *optimized* DM, identical topology but with every link
  widened (parallel channels) to match String Figure's empirical
  bisection bandwidth at the same node count, which is how the paper
  makes the saturation comparison fair.

Mesh requires ``N`` to factor into a near-square grid; prime node
counts are unsupported (the "N" entries of Figure 8).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.network.policies import MinimalPolicy, RoutingPolicy
from repro.topologies.base import BaseTopology, grid_dimensions

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["MeshTopology", "OptimizedMeshTopology"]


class MeshTopology(BaseTopology):
    """2D distributed mesh (DM) with XY + minimal-adaptive routing."""

    name = "DM"
    reconfigurable = False
    radix_scales_with_n = False

    def __init__(self, num_nodes: int) -> None:
        super().__init__(num_nodes)
        self.rows, self.cols = grid_dimensions(num_nodes, "mesh")

    def coordinates_of(self, node: int) -> tuple[int, int]:
        """Grid (row, col) of a node id."""
        return divmod(node, self.cols)

    def node_at(self, row: int, col: int) -> int:
        return row * self.cols + col

    def build_graph(self) -> nx.Graph:
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_nodes))
        for node in range(self.num_nodes):
            r, c = self.coordinates_of(node)
            if c + 1 < self.cols:
                g.add_edge(node, self.node_at(r, c + 1))
            if r + 1 < self.rows:
                g.add_edge(node, self.node_at(r + 1, c))
        return g

    def _xy_preference(self, current: int, dst: int, candidate: int) -> float:
        """Rank minimal candidates X-first (dimension-order primary)."""
        cr, cc = self.coordinates_of(current)
        kr, kc = self.coordinates_of(candidate)
        moves_x = kc != cc
        dr, dc = self.coordinates_of(dst)
        if dc != cc:  # X offset remains: XY prefers the X move
            return 0.0 if moves_x else 1.0
        return 0.0 if not moves_x else 1.0

    def make_policy(self, adaptive: bool = True) -> RoutingPolicy:
        return MinimalPolicy(
            self.graph(), adaptive=adaptive, preference=self._xy_preference
        )

    def average_hops_analytic(self) -> float:
        """Closed-form mean XY hop count (~(rows + cols)/3 for large grids)."""
        rows, cols = self.rows, self.cols
        # Mean |Δ| of two uniform ints in [0, k): (k^2 - 1) / (3k)
        ex = (cols * cols - 1) / (3 * cols)
        ey = (rows * rows - 1) / (3 * rows)
        return ex + ey


class OptimizedMeshTopology(MeshTopology):
    """ODM: mesh with links widened to match String Figure's bisection.

    ``channels`` is the per-link parallel-channel count.  Use
    :func:`repro.analysis.bisection.matched_channels` to derive it from
    empirical bisection bandwidths, or keep the default factor of 2
    (adequate at the scales the paper sweeps; the bench records the
    factor used).
    """

    name = "ODM"

    def __init__(self, num_nodes: int, channels: int = 2) -> None:
        super().__init__(num_nodes)
        if channels < 1:
            raise ValueError(f"channels must be >= 1, got {channels}")
        self.channels = channels

    def link_channels(self, u: int, v: int) -> int:
        return self.channels
