"""Elastic network reconfiguration (paper §III-C).

String Figure supports two reconfiguration flavors with the same four
atomic steps:

1. **Block** the routing-table entries that will change in every
   affected router (packets keep flowing, avoiding the changing links).
2. **Enable/disable** the physical connections: links incident to a
   gated node are disabled and dormant *shortcut* wires that bridge the
   gap on the space-0 ring are switched in (Figure 7's topology switch).
3. **Validate/invalidate** the affected routing-table entries —
   gated neighbors become invalid, patched two-hop neighbors become
   one-hop (just bit flips; no entries are added or removed).  A batch
   of nodes runs steps 1 and 2 node by node, then validates the union
   of their affected tables once: the tables are not read between the
   per-node switches, so one pass over the final topology equals one
   pass per node.
4. **Unblock** the entries.

A router's window here is a function of the active topology, the
failed wires and the blocked nodes (:meth:`GreediestRouting.rebuild`),
so step 3 recomputes the affected windows.  Offline, no packet reads a
window between steps 1 and 4, so they are no-ops: step 3 rebuilds every
router they would block.  Online, :mod:`repro.network.elastic` blocks
by adding the victims to ``GreediestRouting.blocked``.

*Dynamic* reconfiguration (power management) performs the steps online
and pays sleep/wake latencies (:mod:`repro.energy.power_gating`).
*Static* expansion/reduction (design reuse) performs them offline when
memory nodes are mounted on or unmounted from a pre-fabricated board.

Ring-patching rule: a dormant shortcut wire ``(u, v)`` is switched in
exactly when every original space-0 ring node strictly between ``u``
and ``v`` (clockwise) is inactive.  This re-closes the space-0 ring
around gated nodes, which preserves both network connectivity and the
greedy-fallback delivery guarantee.  Because shortcut wires only exist
at clockwise offsets 2 and 4 toward higher node ids, not every node is
*cleanly* gateable; :meth:`ReconfigurationManager.cleanly_gateable`
checks the condition and :meth:`gate_candidates` selects well-spaced
gateable sets, mirroring how a power manager would choose victims.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.routing import GreediestRouting
from repro.core.topology import LinkDirection, StringFigureTopology
from repro.core.topology_switch import TopologySwitch

__all__ = ["ReconfigEvent", "ReconfigurationManager"]

#: The state each kind of step leaves a node in; a node already in it
#: is refused.
_END_STATE = {
    "gate_off": "inactive",
    "gate_on": "active",
    "unmount": "unmounted",
    "mount": "mounted",
}


@dataclass
class ReconfigEvent:
    """Record of one reconfiguration: what changed and what it cost."""

    kind: str  # "gate_off", "gate_on", "unmount", "mount"
    node: int
    links_disabled: list[tuple[int, int]] = field(default_factory=list)
    links_enabled: list[tuple[int, int]] = field(default_factory=list)
    shortcuts_activated: list[tuple[int, int]] = field(default_factory=list)
    shortcuts_deactivated: list[tuple[int, int]] = field(default_factory=list)
    tables_updated: list[int] = field(default_factory=list)


class ReconfigurationManager:
    """Coordinates topology and routing-table changes atomically."""

    def __init__(
        self, topology: StringFigureTopology, routing: GreediestRouting
    ) -> None:
        if not topology.with_shortcuts:
            raise ValueError(
                "reconfiguration requires a topology with shortcut wires "
                "(S2 does not support down-scaling; see paper §V)"
            )
        self.topology = topology
        self.routing = routing
        self.events: list[ReconfigEvent] = []
        # Coordinates never move, so the space-0 ring and each shortcut
        # wire's clockwise span on it are worked out once.
        self._ring = topology.coords.ring(0)
        self._wire_spans = [
            (u, v, *self._shortcut_span(u, v)) for u, v in topology.shortcut_wires
        ]

    # -- ring bookkeeping -------------------------------------------------------

    def _active_ring_neighbors(self, node: int) -> tuple[int, int]:
        """Nearest *active* space-0 ring neighbors around *node*."""
        ring = self._ring
        n = len(ring)
        pos = self.topology.coords.ring_position(node, 0)
        pred = succ = node
        for step in range(1, n):
            cand = ring[(pos - step) % n]
            if self.topology.is_active(cand) and cand != node:
                pred = cand
                break
        for step in range(1, n):
            cand = ring[(pos + step) % n]
            if self.topology.is_active(cand) and cand != node:
                succ = cand
                break
        return pred, succ

    def _span_is_gated(self, u: int, v: int) -> bool:
        """True if every original ring node strictly between u→v is inactive."""
        ring = self._ring
        n = len(ring)
        pu = self.topology.coords.ring_position(u, 0)
        pv = self.topology.coords.ring_position(v, 0)
        steps = (pv - pu) % n
        for k in range(1, steps):
            if self.topology.is_active(ring[(pu + k) % n]):
                return False
        return True

    def _shortcut_span(self, u: int, v: int) -> tuple[int, int]:
        """Orient a shortcut wire clockwise on the space-0 ring."""
        ring_len = len(self._ring)
        pu = self.topology.coords.ring_position(u, 0)
        pv = self.topology.coords.ring_position(v, 0)
        if (pv - pu) % ring_len <= (pu - pv) % ring_len:
            return u, v
        return v, u

    def _sync_shortcuts(self, event: ReconfigEvent) -> None:
        """Recompute the active shortcut set after a node state change.

        Two-phase selection, recorded as a diff on *event*:

        1. **Ring patches** — wires whose whole clockwise space-0 span
           is gated re-close the ring (delivery guarantee).
        2. **Opportunistic** — remaining dormant wires are switched in
           while both endpoints still have free ports, so the scaled-
           down network "fully utilizes router ports" (paper §III-A)
           and keeps throughput high.

        Because the selection is recomputed from scratch, powering a
        node back on automatically reclaims the ports its neighbors had
        loaned to opportunistic shortcuts.
        """
        topo = self.topology
        before = topo.active_shortcuts
        for u, v in list(before):
            topo.deactivate_shortcut(u, v)

        patches: list[tuple[int, int]] = []
        opportunistic: list[tuple[int, int]] = []
        for u, v, cu, cv in self._wire_spans:
            if topo.is_active(u) and topo.is_active(v):
                phase = patches if self._span_is_gated(cu, cv) else opportunistic
                phase.append((u, v))
        for u, v in patches + opportunistic:
            if TopologySwitch(topo, u).can_activate(u, v):
                topo.activate_shortcut(u, v)

        after = topo.active_shortcuts
        event.shortcuts_activated.extend(sorted(after - before))
        event.shortcuts_deactivated.extend(sorted(before - after))

    # -- affected-set computation ---------------------------------------------------

    def _radius2(self, seeds: set[int]) -> set[int]:
        """Active nodes within two hops of *seeds* (pre/post union view)."""
        affected = set(seeds)
        frontier = set(seeds)
        for _ in range(2):
            nxt: set[int] = set()
            for v in frontier:
                if not (0 <= v < self.topology.num_nodes):
                    continue
                for w in self.topology.neighbors(v):
                    nxt.add(w)
                for w in self.topology.in_neighbors(v):
                    nxt.add(w)
            frontier = nxt - affected
            affected |= nxt
        return {v for v in affected if self.topology.is_active(v)}

    # -- the four-step sequence ------------------------------------------------------

    def check_batch(self, nodes: tuple[int, ...], activate: bool, kind: str) -> None:
        """Reject the whole batch before any of it runs (``ValueError``).

        Each node must exist, not repeat, and be in the state its step
        leaves; gating keeps at least two active nodes, counted after
        the earlier victims of the same batch.
        """
        topo = self.topology
        state = _END_STATE[kind]
        active = len(topo.active_nodes)
        seen: set[int] = set()
        for node in nodes:
            if not 0 <= node < topo.num_nodes:
                raise ValueError(f"node {node} is not in the network")
            if node in seen:
                raise ValueError(f"node {node} repeats in the batch")
            if topo.is_active(node) == activate:
                raise ValueError(f"node {node} is already {state}")
            if kind == "gate_off" and active - len(seen) <= 2:
                raise ValueError("cannot gate below two active nodes")
            seen.add(node)

    def _switch_node(self, node: int, activate: bool, kind: str) -> ReconfigEvent:
        """Step 2 for one node (step 1 is a no-op offline); the event's
        ``tables_updated`` names the tables step 3 must rebuild."""
        topo = self.topology
        event = ReconfigEvent(kind=kind, node=node)

        pre_neighbors = set(topo.neighbors(node)) | set(topo.in_neighbors(node))

        # Step 2: enable/disable connections.
        if activate:
            topo.set_node_active(node, True)
        else:
            for w in pre_neighbors:
                key = (node, w) if topo.link_kind(node, w) else (w, node)
                event.links_disabled.append(key)
            topo.set_node_active(node, False)
        self._sync_shortcuts(event)
        if activate:
            event.links_enabled = [
                (node, w) for w in topo.neighbors(node)
            ] + [(w, node) for w in topo.in_neighbors(node)]

        post_neighbors = set(topo.neighbors(node)) | set(topo.in_neighbors(node))
        changed_endpoints = {node} | pre_neighbors | post_neighbors
        for u, v in event.shortcuts_activated + event.shortcuts_deactivated:
            changed_endpoints |= {u, v}
        to_update = self._radius2(changed_endpoints)
        if activate:
            to_update.add(node)
        event.tables_updated = sorted(to_update)
        return event

    def _reconfigure(
        self, nodes: tuple[int, ...], activate: bool, kind: str
    ) -> list[ReconfigEvent]:
        """Run the four steps over a batch of nodes, in order.

        Steps 1 and 2 run per node exactly as for a lone node, so every
        event's fields match a one-call-per-node sequence.  Steps 3 and
        4 then run once over the union: no packet can read a window
        between the per-node switches, and a recomputed window is a
        function of the final topology.
        """
        self.check_batch(nodes, activate, kind)
        if not nodes:
            return []
        events = [self._switch_node(node, activate, kind) for node in nodes]

        # Step 3: validate/invalidate — recompute the local windows from
        # the new topology (semantically the paper's bit flips).  Step 4,
        # unblock, has nothing left to do: the recomputed windows never
        # held the block.
        updated = set(nodes).union(*(event.tables_updated for event in events))
        self.routing.rebuild(sorted(updated))
        self.events.extend(events)
        return events

    # -- public API --------------------------------------------------------------------

    def power_gate(self, *nodes: int) -> list[ReconfigEvent]:
        """Dynamically power nodes (and their links) off, as one batch."""
        return self._reconfigure(nodes, activate=False, kind="gate_off")

    def power_on(self, *nodes: int) -> list[ReconfigEvent]:
        """Bring gated nodes back into the network (reverse steps)."""
        return self._reconfigure(nodes, activate=True, kind="gate_on")

    def unmount(self, *nodes: int) -> list[ReconfigEvent]:
        """Static network reduction (offline; no wake latency applies)."""
        return self._reconfigure(nodes, activate=False, kind="unmount")

    def mount(self, *nodes: int) -> list[ReconfigEvent]:
        """Static network expansion onto reserved board positions."""
        return self._reconfigure(nodes, activate=True, kind="mount")

    # -- victim selection ----------------------------------------------------------------

    def cleanly_gateable(self, node: int) -> bool:
        """Whether gating *node* leaves the space-0 ring patchable.

        Requires *node* active, two distinct active ring neighbors
        around it, and a physical wire of any kind (base link or
        shortcut) between those two neighbors.
        """
        if not self.topology.is_active(node):
            return False
        pred, succ = self._active_ring_neighbors(node)
        if pred == node or succ == node or pred == succ:
            return False
        return self.topology.link_kind(pred, succ) is not None

    def gate_candidates(self, count: int, min_spacing: int = 3) -> list[int]:
        """Select up to *count* well-spaced cleanly-gateable victims.

        Victims are chosen greedily around the space-0 ring with at
        least *min_spacing* ring slots between consecutive picks, so
        their shortcut patches never compete for the same ports.
        """
        ring = self._ring
        n = len(ring)
        picked: list[int] = []
        picked_pos: list[int] = []
        for pos, node in enumerate(ring):
            if len(picked) >= count:
                break
            if not self.cleanly_gateable(node):
                continue
            if any(
                min((pos - q) % n, (q - pos) % n) < min_spacing for q in picked_pos
            ):
                continue
            picked.append(node)
            picked_pos.append(pos)
        return picked

    # -- validation --------------------------------------------------------------------------

    def validate_connectivity(self) -> bool:
        """Whether every pair of active nodes can still reach each other."""
        import networkx as nx

        g = self.topology.graph()
        if g.number_of_nodes() <= 1:
            return True
        if self.topology.direction is LinkDirection.UNI:
            return nx.is_strongly_connected(g)
        return nx.is_connected(g)
