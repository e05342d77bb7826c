"""Per-router routing-table storage (paper §IV-B, Figure 6b).

Each router keeps a small table describing only its one- and two-hop
neighborhood — this is what makes String Figure's routing state
*constant* in the network size, unlike k-shortest-path schemes whose
tables grow superlinearly.  A hardware entry stores:

* the neighbor's memory-node number (``log2 N`` bits),
* a 1-bit *blocking* flag (set during atomic reconfiguration),
* a 1-bit *valid* flag (cleared when the neighbor is gated off),
* a 1-bit hop count (0 = one-hop, 1 = two-hop),
* the virtual-space id (``ceil(log2 p/2)`` bits) and a 7-bit coordinate
  per space.

The table is bounded by ``p(p+1)`` entries for ``p``-port routers: at
most ``p`` one-hop neighbors, each contributing at most ``p`` of its own
one-hop neighbors.

The simulator keeps no per-entry table: every router's usable window
is computed from the topology, the failed wires and the blocked nodes
(:class:`~repro.core.routing.GreediestRouting`).  This module holds the
bit-accurate size accounting, so the storage-overhead claims can be
checked in tests and benches.
"""

from __future__ import annotations

import math

__all__ = ["active_out", "entry_bits", "max_entries", "table_bits"]


def active_out(topology, node: int) -> list[int]:
    """*node*'s active out-neighbors, ascending: the one-hop rows of
    its table."""
    return sorted(w for w in topology.neighbors(node) if topology.is_active(w))


def max_entries(num_ports: int) -> int:
    """The paper's p(p+1) capacity bound of one router's table."""
    return num_ports * (num_ports + 1)


def entry_bits(num_nodes: int, num_ports: int, coord_bits: int = 7) -> int:
    """Hardware bits of one table entry (paper §IV-B accounting).

    node id + blocking + valid + hop + (space id + coordinate) per the
    entry's space field.  The paper stores one space/coordinate pair per
    entry row; we follow that accounting.
    """
    node_bits = max(1, math.ceil(math.log2(num_nodes)))
    spaces = max(1, num_ports // 2)
    space_bits = max(1, math.ceil(math.log2(spaces)))
    return node_bits + 1 + 1 + 1 + space_bits + coord_bits


def table_bits(num_nodes: int, num_ports: int, coord_bits: int = 7) -> int:
    """Worst-case hardware bits of one router's full table.

    ``p(p+1)`` entries, each carrying one (space, coordinate) row per
    virtual space.
    """
    spaces = max(1, num_ports // 2)
    rows = max_entries(num_ports) * spaces
    return rows * entry_bits(num_nodes, num_ports, coord_bits)
