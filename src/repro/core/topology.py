"""String Figure topology construction (paper §III-A, Figure 4a).

The balanced random topology is built in four steps:

1. Construct ``L = ⌊p/2⌋`` virtual spaces for ``p``-port routers.
2. Place every node at a balanced random coordinate in each space
   (:class:`repro.core.coordinates.CoordinateSystem`).
3. Interconnect ring neighbors in every space.  A pair adjacent in two
   spaces shares one physical link, freeing router ports.
4. Pair up remaining free ports, preferring the pair of nodes with the
   longest distance (largest ``MD``).

On top of the basic topology, shortcut wires to 2-/4-hop clockwise
space-0 neighbors are generated (:mod:`repro.core.shortcuts`).  In the
fully-populated network the shortcuts are *dormant*: the basic topology
already uses every router port, and the per-node topology switch
(Figure 7) can swap shortcuts in when reconfiguration frees ports.

Both bi-directional (default; matches the paper's Figure 3 drawing) and
uni-directional (the paper's final design choice, §IV-C) link modes are
supported.  In uni-directional mode every ring is a directed clockwise
cycle and routing uses clockwise distances.
"""

from __future__ import annotations

from enum import Enum

import networkx as nx

from repro.core.coordinates import CoordinateSystem
from repro.core.shortcuts import SHORTCUT_OFFSETS, generate_shortcuts

__all__ = ["LinkDirection", "LinkKind", "StringFigureTopology", "S2Topology"]


class LinkDirection(str, Enum):
    """Whether links carry traffic both ways or clockwise only."""

    BI = "bi"
    UNI = "uni"


class LinkKind(str, Enum):
    """Provenance of a physical link."""

    RING = "ring"
    PAIRING = "pairing"
    SHORTCUT = "shortcut"


class StringFigureTopology:
    """The String Figure balanced random memory-network topology.

    Parameters
    ----------
    num_nodes:
        Number of memory nodes ``N`` (arbitrary — no power-of-two or
        perfect-square constraint; this is one of the design goals).
    num_ports:
        Router ports ``p`` available for network links (the terminal
        port to the local memory stack / processor is *not* counted,
        following the paper).
    seed:
        Seed for reproducible construction.
    with_shortcuts:
        Generate shortcut wires (disable to obtain the S2 baseline).
    direction:
        ``LinkDirection.BI`` (default) or ``LinkDirection.UNI``.
    candidates:
        Best-of-k factor of balanced coordinate generation.
    coord_bits:
        Optional hardware coordinate quantization (7 in the paper).

    Notes
    -----
    The instance keeps two layers of state:

    * the immutable *physical* wiring (rings + pairings + shortcut
      wires), and
    * a mutable *activation* overlay (which nodes are powered/mounted
      and which shortcut wires are switched in), driven by
      :class:`repro.core.reconfig.ReconfigurationManager`.
    """

    name = "SF"
    #: String Figure reconfigures a deployed network (Table II).
    reconfigurable = True
    #: Router radix stays constant as the network scales (Table II).
    radix_scales_with_n = False

    def __init__(
        self,
        num_nodes: int,
        num_ports: int,
        seed: int | None = None,
        with_shortcuts: bool = True,
        direction: LinkDirection | str = LinkDirection.BI,
        candidates: int = 8,
        coord_bits: int | None = None,
    ) -> None:
        if num_nodes < 2:
            raise ValueError(f"num_nodes must be >= 2, got {num_nodes}")
        if num_ports < 2:
            raise ValueError(f"num_ports must be >= 2, got {num_ports}")
        self.num_nodes = num_nodes
        self.num_ports = num_ports
        self.seed = seed
        self.direction = LinkDirection(direction)
        self.with_shortcuts = with_shortcuts
        self.num_spaces = num_ports // 2
        self.coords = CoordinateSystem(
            num_nodes,
            self.num_spaces,
            seed=seed,
            candidates=candidates,
            coord_bits=coord_bits,
        )

        # Physical wiring -------------------------------------------------
        # _links maps a canonical link key to its LinkKind; for BI the key
        # is an ordered (min, max) pair, for UNI it is the directed pair.
        self._links: dict[tuple[int, int], LinkKind] = {}
        self._ring_spaces: dict[tuple[int, int], list[int]] = {}
        self._build_rings()
        self._build_pairings()
        self._shortcut_wires: list[tuple[int, int]] = []
        self._overlapping_shortcuts: list[tuple[int, int]] = []
        if with_shortcuts:
            self._build_shortcuts()

        # Activation overlay ----------------------------------------------
        self.node_active: list[bool] = [True] * num_nodes
        #: set_node_active calls so far: caches of the active set
        #: rebuild when it moves.
        self.activation_changes = 0
        self._active_shortcuts: set[tuple[int, int]] = set()

        # Adjacency indexes (base links only; shortcuts tracked separately
        # so activation toggles stay O(1)).
        self._adj_out: list[set[int]] = [set() for _ in range(num_nodes)]
        self._adj_in: list[set[int]] = [set() for _ in range(num_nodes)]
        self._shortcut_adj_out: list[set[int]] = [set() for _ in range(num_nodes)]
        self._shortcut_adj_in: list[set[int]] = [set() for _ in range(num_nodes)]
        for (u, v), kind in self._links.items():
            if kind is LinkKind.SHORTCUT:
                continue
            self._adj_out[u].add(v)
            self._adj_in[v].add(u)
            if self.direction is LinkDirection.BI:
                self._adj_out[v].add(u)
                self._adj_in[u].add(v)

    # -- construction ------------------------------------------------------

    def _link_key(self, u: int, v: int) -> tuple[int, int]:
        if self.direction is LinkDirection.BI:
            return (u, v) if u < v else (v, u)
        return (u, v)

    def _build_rings(self) -> None:
        """Step 3: interconnect ring neighbors in every virtual space."""
        for space in range(self.num_spaces):
            ring = self.coords.ring(space)
            n = len(ring)
            for i, node in enumerate(ring):
                succ = ring[(i + 1) % n]
                if succ == node:
                    continue
                key = self._link_key(node, succ)
                self._links.setdefault(key, LinkKind.RING)
                self._ring_spaces.setdefault(key, []).append(space)

    def _port_usage(self) -> tuple[list[int], list[int]]:
        """Return (out_used, in_used) port counts per node.

        In BI mode a link consumes one port at each endpoint and the two
        lists are identical; in UNI mode out- and in-ports are tracked
        separately (p/2 of each).
        """
        out_used = [0] * self.num_nodes
        in_used = [0] * self.num_nodes
        for (u, v), kind in self._links.items():
            if kind is LinkKind.SHORTCUT:
                continue  # shortcut wires attach through the switch
            out_used[u] += 1
            in_used[v] += 1
            if self.direction is LinkDirection.BI:
                out_used[v] += 1
                in_used[u] += 1
        return out_used, in_used

    def _build_pairings(self) -> None:
        """Step 4: connect pairs of nodes that still have free ports."""
        if self.direction is LinkDirection.BI:
            budget = self.num_ports
            out_used, _ = self._port_usage()
            free = {v: budget - out_used[v] for v in range(self.num_nodes)}
            distance = self.coords.md
        else:
            budget = self.num_ports // 2
            out_used, in_used = self._port_usage()
            free_out = {v: budget - out_used[v] for v in range(self.num_nodes)}
            free_in = {v: budget - in_used[v] for v in range(self.num_nodes)}
            distance = self.coords.md_clockwise

        while True:
            best: tuple[float, int, int] | None = None
            if self.direction is LinkDirection.BI:
                nodes = [v for v, f in free.items() if f > 0]
                for i, u in enumerate(nodes):
                    for v in nodes[i + 1 :]:
                        if self._link_key(u, v) in self._links:
                            continue
                        d = distance(u, v)
                        if best is None or d > best[0]:
                            best = (d, u, v)
            else:
                sources = [v for v, f in free_out.items() if f > 0]
                sinks = [v for v, f in free_in.items() if f > 0]
                for u in sources:
                    for v in sinks:
                        if u == v or (u, v) in self._links:
                            continue
                        d = distance(u, v)
                        if best is None or d > best[0]:
                            best = (d, u, v)
            if best is None:
                break
            _, u, v = best
            self._links[self._link_key(u, v)] = LinkKind.PAIRING
            if self.direction is LinkDirection.BI:
                free[u] -= 1
                free[v] -= 1
            else:
                free_out[u] -= 1
                free_in[v] -= 1

    def _build_shortcuts(self) -> None:
        """Generate shortcut wires; classify overlaps with base links."""
        for u, v in generate_shortcuts(self.coords, SHORTCUT_OFFSETS):
            key = self._link_key(u, v)
            if key in self._links:
                self._overlapping_shortcuts.append((u, v))
            else:
                self._links[key] = LinkKind.SHORTCUT
                self._shortcut_wires.append((u, v))

    # -- physical structure queries -----------------------------------------

    def physical_links(
        self, kinds: tuple[LinkKind, ...] | None = None
    ) -> list[tuple[int, int]]:
        """All physical wires, optionally filtered by :class:`LinkKind`."""
        if kinds is None:
            return list(self._links)
        return [k for k, kind in self._links.items() if kind in kinds]

    def link_kind(self, u: int, v: int) -> LinkKind | None:
        """Kind of the physical wire between *u* and *v* (None if absent)."""
        return self._links.get(self._link_key(u, v))

    def ring_spaces(self, u: int, v: int) -> list[int]:
        """Virtual spaces in which *u* and *v* are ring neighbors."""
        return list(self._ring_spaces.get(self._link_key(u, v), []))

    @property
    def shortcut_wires(self) -> list[tuple[int, int]]:
        """Shortcut wires that are distinct from base-topology links."""
        return list(self._shortcut_wires)

    @property
    def overlapping_shortcuts(self) -> list[tuple[int, int]]:
        """Generated shortcuts that coincide with base-topology links."""
        return list(self._overlapping_shortcuts)

    def base_degree(self, node: int) -> int:
        """Number of base-topology (non-shortcut) links at *node*."""
        deg = 0
        for (u, v), kind in self._links.items():
            if kind is LinkKind.SHORTCUT:
                continue
            if u == node or v == node:
                deg += 1
        return deg

    # -- activation overlay ---------------------------------------------------

    def is_active(self, node: int) -> bool:
        """Whether *node* is currently powered and mounted."""
        return self.node_active[node]

    @property
    def active_nodes(self) -> list[int]:
        """All currently active node ids."""
        return [v for v in range(self.num_nodes) if self.node_active[v]]

    def set_node_active(self, node: int, active: bool) -> None:
        """Power/mount state change (use the ReconfigurationManager)."""
        self.node_active[node] = active
        self.activation_changes += 1

    def activate_shortcut(self, u: int, v: int) -> None:
        """Switch the shortcut wire between *u* and *v* into the ports."""
        key = self._link_key(u, v)
        if self._links.get(key) is not LinkKind.SHORTCUT:
            raise ValueError(f"no shortcut wire between {u} and {v}")
        self._active_shortcuts.add(key)
        a, b = key
        self._shortcut_adj_out[a].add(b)
        self._shortcut_adj_in[b].add(a)
        if self.direction is LinkDirection.BI:
            self._shortcut_adj_out[b].add(a)
            self._shortcut_adj_in[a].add(b)

    def deactivate_shortcut(self, u: int, v: int) -> None:
        """Switch the shortcut wire between *u* and *v* back out."""
        key = self._link_key(u, v)
        if key not in self._active_shortcuts:
            return
        self._active_shortcuts.discard(key)
        a, b = key
        self._shortcut_adj_out[a].discard(b)
        self._shortcut_adj_in[b].discard(a)
        if self.direction is LinkDirection.BI:
            self._shortcut_adj_out[b].discard(a)
            self._shortcut_adj_in[a].discard(b)

    @property
    def active_shortcuts(self) -> set[tuple[int, int]]:
        """Shortcut wires currently switched into router ports."""
        return set(self._active_shortcuts)

    def _link_is_active(self, key: tuple[int, int]) -> bool:
        u, v = key
        if not (self.node_active[u] and self.node_active[v]):
            return False
        if self._links[key] is LinkKind.SHORTCUT:
            return key in self._active_shortcuts
        return True

    def active_links(self) -> list[tuple[int, int]]:
        """Physical links currently carrying traffic."""
        return [key for key in self._links if self._link_is_active(key)]

    def neighbors(self, node: int) -> list[int]:
        """Active neighbors of *node* (out-neighbors in UNI mode)."""
        if not self.node_active[node]:
            return []
        return sorted(
            w
            for w in self._adj_out[node] | self._shortcut_adj_out[node]
            if self.node_active[w]
        )

    def in_neighbors(self, node: int) -> list[int]:
        """Active in-neighbors (equals :meth:`neighbors` in BI mode)."""
        if self.direction is LinkDirection.BI:
            return self.neighbors(node)
        if not self.node_active[node]:
            return []
        return sorted(
            u
            for u in self._adj_in[node] | self._shortcut_adj_in[node]
            if self.node_active[u]
        )

    def active_degree(self, node: int) -> int:
        """Ports in use at *node* right now."""
        active = self.node_active
        if not active[node]:
            return 0
        # Shortcut wires never coincide with base links, so the base and
        # shortcut adjacency sets are disjoint and count separately.
        is_active = active.__getitem__
        used = sum(map(is_active, self._adj_out[node]))
        used += sum(map(is_active, self._shortcut_adj_out[node]))
        if self.direction is LinkDirection.UNI:
            used += sum(map(is_active, self._adj_in[node]))
            used += sum(map(is_active, self._shortcut_adj_in[node]))
        return used

    @property
    def radix(self) -> int:
        """Network ports per router (constant in N — a design goal)."""
        return self.num_ports

    def link_channels(self, u: int, v: int) -> int:
        """Parallel physical channels per link (always 1 for SF)."""
        return 1

    # -- graph views -----------------------------------------------------------

    def graph(self, include_inactive: bool = False) -> nx.Graph:
        """NetworkX view of the active network (DiGraph in UNI mode)."""
        g: nx.Graph = nx.DiGraph() if self.direction is LinkDirection.UNI else nx.Graph()
        if include_inactive:
            g.add_nodes_from(range(self.num_nodes))
            edges = list(self._links)
        else:
            g.add_nodes_from(self.active_nodes)
            edges = self.active_links()
        for u, v in edges:
            g.add_edge(u, v, kind=self._links[(u, v)].value)
        return g

    def physical_graph(self) -> nx.Graph:
        """NetworkX view of every physical wire (shortcuts included)."""
        return self.graph(include_inactive=True)

    # -- invariants ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if construction invariants are violated.

        * every node's base-topology port usage fits the port budget;
        * every virtual space's ring is a single cycle over all nodes;
        * at most two shortcut wires originate at any node;
        * active degree never exceeds the port budget.
        """
        out_used, in_used = self._port_usage()
        for v in range(self.num_nodes):
            if self.direction is LinkDirection.BI:
                assert out_used[v] <= self.num_ports, (
                    f"node {v} uses {out_used[v]} ports > budget {self.num_ports}"
                )
            else:
                half = self.num_ports // 2
                assert out_used[v] <= half and in_used[v] <= half, (
                    f"node {v} uses {out_used[v]}/{in_used[v]} of {half} uni ports"
                )
        for space in range(self.num_spaces):
            ring = self.coords.ring(space)
            assert sorted(ring) == list(range(self.num_nodes))
        origins: dict[int, int] = {}
        for u, _v in self._shortcut_wires + self._overlapping_shortcuts:
            origins[u] = origins.get(u, 0) + 1
        for node, count in origins.items():
            assert count <= len(SHORTCUT_OFFSETS), (
                f"node {node} originates {count} shortcuts"
            )
        for v in self.active_nodes:
            assert self.active_degree(v) <= self.num_ports + len(SHORTCUT_OFFSETS), (
                f"node {v} active degree exceeds switch capacity"
            )


class S2Topology(StringFigureTopology):
    """The S2 baseline (Yu & Qian, ICNP 2014): String Figure minus shortcuts.

    S2 uses the same multi-space balanced random construction and
    greediest routing but has no shortcut wires and no topology switch,
    hence no support for down-scaling an already-deployed network — the
    paper evaluates it as the impractical ideal "S2-ideal" that
    regenerates a fresh topology for every network scale.
    """

    name = "S2"
    #: S2 cannot down-scale a deployed network (paper §V evaluates the
    #: impractical "S2-ideal" that regenerates topologies per scale).
    reconfigurable = False
    radix_scales_with_n = False

    def __init__(
        self,
        num_nodes: int,
        num_ports: int,
        seed: int | None = None,
        direction: LinkDirection | str = LinkDirection.BI,
        candidates: int = 8,
        coord_bits: int | None = None,
    ) -> None:
        super().__init__(
            num_nodes,
            num_ports,
            seed=seed,
            with_shortcuts=False,
            direction=direction,
            candidates=candidates,
            coord_bits=coord_bits,
        )
