"""The per-entry routing table of paper §IV-B, kept as a test oracle.

A hardware router holds a table of its one- and two-hop neighbors; each
entry carries a hop count, the one-hop vias it is reached through, and
a *valid* and a *blocking* bit that reconfiguration and fault repair
flip.  ``GreediestRouting`` keeps no such table: it computes every
router's usable window from the active topology, the failed wires and
the blocked nodes.  :func:`oracle_tables` builds every table from
scratch and imposes those inputs bit by bit, so the differential tests
can hold each computed window to the table's ``usable_window``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.routing_table import active_out


@dataclass(slots=True)
class TableEntry:
    """One neighbor record; a one-hop entry is its own via."""

    node: int
    hop: int
    vias: set[int]
    valid: bool = True
    blocked: bool = False


class RoutingTable:
    """The one- and two-hop neighbor table of a single router."""

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self._entries: dict[int, TableEntry] = {}

    @classmethod
    def build(cls, topology, owner: int) -> RoutingTable:
        """*owner*'s active out-neighbors, and the active out-neighbors
        of each of them, with every bit clear."""
        table = cls(owner)
        entries = table._entries
        one_hop = active_out(topology, owner)
        for w in one_hop:
            entries[w] = TableEntry(w, 1, {w})
        vias: dict[int, set[int]] = {}
        for w in one_hop:
            for x in active_out(topology, w):
                if x != owner and x not in entries:
                    vias.setdefault(x, set()).add(w)
        for x, via in vias.items():
            entries[x] = TableEntry(x, 2, via)
        return table

    def __contains__(self, node: int) -> bool:
        return node in self._entries

    def block(self, node: int) -> None:
        """Set the blocking bit on the entry for *node*, whatever its hop."""
        entry = self._entries.get(node)
        if entry is not None:
            entry.blocked = True

    def drop_via(self, node: int, via: int) -> None:
        """Remove *via* from *node*'s two-hop entry; invalidate the entry
        when no via remains.  One-hop entries are left alone."""
        entry = self._entries.get(node)
        if entry is None or entry.hop != 2 or via not in entry.vias:
            return
        entry.vias.discard(via)
        if not entry.vias:
            entry.valid = False

    def usable_window(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """The part of the table forwarding reads, as ``(node, hop, vias)``.

        Usable one-hop entries come first, then usable two-hop entries,
        each in node-id order.  ``vias`` holds the positions, ascending,
        of the entry's usable vias among the one-hop rows.  A two-hop
        entry is only a window target while at least one of its vias is
        usable.
        """
        usable = [e for _node, e in sorted(self._entries.items()) if e.valid and not e.blocked]
        one_hop = [e for e in usable if e.hop == 1]
        pos = {e.node: i for i, e in enumerate(one_hop)}
        rows = []
        for e in one_hop + [e for e in usable if e.hop == 2]:
            vias = tuple(sorted(pos[w] for w in e.vias if w in pos))
            if vias:
                rows.append((e.node, e.hop, vias))
        return tuple(rows)


def oracle_tables(topology, failed_links, blocked) -> dict[int, RoutingTable]:
    """Every active router's table, built fresh, with each failed wire
    ``{a, b}`` imposed as :class:`~repro.faults.detector.TableRepair`
    always has (``a`` blocks ``b``; a two-hop entry ``b`` elsewhere
    drops via ``a``; and the same with ``a`` and ``b`` swapped) and each
    blocked node blocked as a live gate-off does, in every table."""
    tables = {v: RoutingTable.build(topology, v) for v in topology.active_nodes}
    for owner, table in tables.items():
        for a, b in failed_links:
            for x, y in ((a, b), (b, a)):
                if owner == x:
                    table.block(y)
                else:
                    table.drop_via(y, x)
        for node in blocked:
            table.block(node)
    return tables
