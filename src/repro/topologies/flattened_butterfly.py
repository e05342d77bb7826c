"""Flattened butterfly baselines: FB and the partitioned AFB.

**FB** (Kim, Dally & Abts, ISCA 2007) arranges routers on an
``a x b`` grid and fully connects every row and every column, giving
``(a-1) + (b-1)`` network ports per router and at most two network
hops between any pair.  It achieves the best path lengths of all
evaluated designs at the price of high-radix routers whose port count
keeps growing with network scale (Table II, Figure 9a).

**AFB** is the paper's *adapted* flattened butterfly: a partitioned FB
(after Slim NoC) with fewer links per router, used to match bisection
bandwidth fairly.  Our construction divides each row/column into
segments of ``segment`` routers: segments stay fully connected
internally and consecutive segments are bridged by a single gateway
link, cutting radix roughly from ``a + b - 2`` to
``2 (segment - 1) + 4`` while keeping path lengths low.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.topologies.base import BaseTopology

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["FlattenedButterflyTopology", "AdaptedFlattenedButterflyTopology"]


def _grid_dimensions(num_nodes: int) -> tuple[int, int]:
    best: tuple[int, int] | None = None
    for rows in range(int(math.isqrt(num_nodes)), 1, -1):
        if num_nodes % rows == 0:
            best = (rows, num_nodes // rows)
            break
    if best is None:
        raise ValueError(
            f"flattened butterfly does not support {num_nodes} nodes "
            "(prime count; see paper Figure 8)"
        )
    return best


class FlattenedButterflyTopology(BaseTopology):
    """2D flattened butterfly with minimal + adaptive routing."""

    name = "FB"
    reconfigurable = False
    radix_scales_with_n = True

    def __init__(self, num_nodes: int) -> None:
        super().__init__(num_nodes)
        self.rows, self.cols = _grid_dimensions(num_nodes)

    def coordinates_of(self, node: int) -> tuple[int, int]:
        return divmod(node, self.cols)

    def node_at(self, row: int, col: int) -> int:
        return row * self.cols + col

    def build_graph(self) -> nx.Graph:
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_nodes))
        for r in range(self.rows):
            row_nodes = [self.node_at(r, c) for c in range(self.cols)]
            for i, u in enumerate(row_nodes):
                for v in row_nodes[i + 1 :]:
                    g.add_edge(u, v)
        for c in range(self.cols):
            col_nodes = [self.node_at(r, c) for r in range(self.rows)]
            for i, u in enumerate(col_nodes):
                for v in col_nodes[i + 1 :]:
                    g.add_edge(u, v)
        return g


class AdaptedFlattenedButterflyTopology(FlattenedButterflyTopology):
    """AFB: partitioned flattened butterfly with reduced radix.

    Parameters
    ----------
    num_nodes:
        Node count (must factor into a grid).
    segment:
        Routers per fully-connected row/column segment.  ``None``
        selects ~sqrt of the row length, which lands the radix near the
        paper's Figure 8 values (e.g. 13 at 256 nodes vs FB's 20+).
    """

    name = "AFB"

    def __init__(self, num_nodes: int, segment: int | None = None) -> None:
        super().__init__(num_nodes)
        if segment is None:
            segment = max(2, round(math.sqrt(max(self.rows, self.cols))) + 2)
        if segment < 2:
            raise ValueError(f"segment must be >= 2, got {segment}")
        self.segment = segment

    def _partition_line(self, line: list[int], g: nx.Graph) -> None:
        """Fully connect segments; bridge consecutive segments (+wrap)."""
        s = self.segment
        chunks = [line[i : i + s] for i in range(0, len(line), s)]
        for chunk in chunks:
            for i, u in enumerate(chunk):
                for v in chunk[i + 1 :]:
                    g.add_edge(u, v)
        if len(chunks) > 1:
            for i, chunk in enumerate(chunks):
                nxt = chunks[(i + 1) % len(chunks)]
                g.add_edge(chunk[-1], nxt[0])

    def build_graph(self) -> nx.Graph:
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_nodes))
        for r in range(self.rows):
            self._partition_line([self.node_at(r, c) for c in range(self.cols)], g)
        for c in range(self.cols):
            self._partition_line([self.node_at(r, c) for r in range(self.rows)], g)
        return g
