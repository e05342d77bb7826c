"""Routing-policy interface between topologies and the simulator.

The simulator is topology-agnostic: it asks a :class:`RoutingPolicy`
for each packet's next hop and reads its VC keys.  Policies receive a
``port_load(node, neighbor) -> [0, 1]`` probe so adaptive schemes can
divert around congested output ports (the hardware equivalent is the
per-port packet counter of paper §IV-B).

* :class:`GreedyPolicy` adapts the String Figure / S2 greediest
  protocol.  The simulator reads its decision ``columns`` itself on
  plain hops after the first; ``forward`` runs for first hops, column
  misses, ``-1`` entries, fallback and commits no longer usable.
* :class:`MinimalPolicy` serves the baselines: shortest-path next hops
  toward each destination, optionally picked adaptively.  This mirrors
  how mesh (dimension-order + adaptive), flattened butterfly (minimal +
  adaptive) and Jellyfish (minimal look-up) route.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence

from repro.core.routing import AdaptiveGreediestRouting, GreediestRouting, RouteState
from repro.core.virtual_channels import select_virtual_channel
from repro.network.packet import Packet

__all__ = ["RoutingPolicy", "GreedyPolicy", "MinimalPolicy"]

PortLoad = Callable[[int, int], float]


class RoutingPolicy(ABC):
    """Per-packet forwarding decisions for the simulator."""

    num_vcs: int = 2
    #: Per-node VC keys: VC0 iff ``vc_keys[src] <= vc_keys[dst]``.
    vc_keys: Sequence
    #: dst -> decision column (:meth:`GreediestRouting.column`) the
    #: simulator reads on plain non-first hops; None: it never does.
    columns: dict | None = None

    @abstractmethod
    def forward(
        self, current: int, packet: Packet, port_load: PortLoad, first_hop: bool
    ) -> int:
        """Return the neighbor to forward *packet* to from *current*.

        Implementations may read and update the packet's ``commit`` and
        ``fallback_md`` routing fields.
        """

    @abstractmethod
    def select_vc(self, src: int, dst: int) -> int:
        """Virtual channel assignment for a new packet (from vc_keys)."""

    def on_reconfigure(self) -> None:
        """Invalidate any caches after a topology reconfiguration."""


class GreedyPolicy(RoutingPolicy):
    """String Figure / S2 greediest (optionally adaptive) routing.

    A plain hop (no commit, no fallback) reads the router's entry in
    the destination's decision column (:meth:`GreediestRouting.column`),
    the one memo of greedy decisions; the simulator does the same read
    itself on every plain hop after the first.  Hops that carry
    commit/fallback state, and plain hops the column cannot answer (the
    fallback walk, or a network above ``kernel_max_nodes``), take the
    scalar :meth:`GreediestRouting.next_hop`.  Adaptive routing
    memoizes its ranked first-hop candidates per ``(current, dst)``;
    they are a deterministic function of the local tables, so the memo
    is exact, and it is dropped whenever ``routing.version`` moves.
    VC keys are the nodes' space-0 coordinates (paper §IV-A).
    """

    def __init__(self, routing: GreediestRouting) -> None:
        self.routing = routing
        self.num_vcs = routing.num_vcs
        #: The routing's own dicts and packing stride, read inline by
        #: the simulator on plain and committed hops.
        self.columns = routing.columns
        self.column_stride = routing.column_stride
        self.nbr_index = routing.nbr_index
        self._adaptive = isinstance(routing, AdaptiveGreediestRouting)
        #: packed ``current * n + dst`` -> ranked ((score, via), ...)
        #: adaptive candidates (int keys hash cheaper than tuples).
        self._cand_cache: dict[int, tuple] = {}
        n = self._key_n = routing.topology.num_nodes
        self.vc_keys = [routing.topology.coords.coordinate(v, 0) for v in range(n)]
        #: Routing generation the candidate memo and load probes were
        #: filled against; a window rebuild anywhere (including
        #: *offline* reconfiguration, which never calls on_reconfigure)
        #: bumps ``routing.version`` and invalidates them on the next
        #: forward.
        self._cache_version = routing.version
        # Integer load probes for the adaptive quick-reject (filled by
        # attach_simulator); keyed on the simulator's stable port_load
        # identity so any other probe falls back to the generic scan.
        self._sim = None
        self._probe_cb = None
        self._class_cbs: tuple = ()
        self._probes: dict[int, list] = {}

    def attach_simulator(self, sim) -> None:
        """Bind the quick-reject scan to *sim*'s port objects.

        The adaptive first-hop check — "is any output port of this
        router loaded past the congestion threshold?" — dominates the
        policy's cost once the decision columns are warm, and it only
        ever compares ``min(1.0, count / cap)`` against a constant.
        Per router, precompute each port's smallest loaded *count* (the
        exact integer threshold, found by scanning the same float
        predicate ``port_load`` evaluates), so the hot path is one int
        compare per neighbor instead of a float division through a
        callback.  Keyed on the identity of ``sim.port_load``: a
        forward driven by any other probe (tests, another simulator
        sharing this memoized policy) takes the generic path unchanged.
        """
        self._sim = sim
        self._probe_cb = sim._port_load_cb
        #: this sim's per-class load closures (installed QoS only);
        #: each carries its class-id group as ``qos_ids``.  Matching is
        #: by identity, so a foreign probe still takes the generic path.
        self._class_cbs = getattr(sim, "_class_load_cbs", ())
        self._probes.clear()

    def _router_probes(self, current: int) -> list:
        probes = self._probes.get(current)
        if probes is None:
            sim = self._sim
            threshold = self.routing.congestion_threshold
            probes = []
            for nbr in self.routing.usable_neighbors(current):
                port = sim._ports.get(current * sim._n + nbr)
                if port is None:
                    port = sim._port(current, nbr)
                cap = port.cap
                # Smallest queued count the float predicate calls
                # loaded, verified against the identical expression
                # port_load computes so the int compare is exact.  The
                # ceil guess can be off by one either way at float
                # boundaries; the two adjustment loops settle it.
                # (count can exceed cap under reserve loans, but the
                # predicate saturates at 1.0 from cap onward, so c=cap
                # decides every larger count too.)
                c = min(max(int(math.ceil(threshold * cap)), 0), cap)
                while c > 0 and min(1.0, (c - 1) / cap) >= threshold:
                    c -= 1
                while c <= cap and min(1.0, c / cap) < threshold:
                    c += 1
                loaded_min: float | int = c if c <= cap else math.inf
                probes.append((port, loaded_min))
            self._probes[current] = probes
        return probes

    def forward(
        self, current: int, packet: Packet, port_load: PortLoad, first_hop: bool
    ) -> int:
        routing = self.routing
        dst = packet.dst
        commit = packet.commit
        if commit < 0 and packet.fallback_md is None:
            if self._cache_version != routing.version:
                self._cand_cache.clear()
                self._probes.clear()
                self._cache_version = routing.version
            # One entry read; ``dst * stride`` is exactly direct delivery.
            column = routing.column(dst)
            stride = self.column_stride
            entry = (
                column[current] if column is not None
                else dst * stride if routing.is_direct(current, dst) else -1
            )
            if self._adaptive and first_hop and entry != dst * stride:
                # Source-router adaptivity (paper §III-B): divert to the
                # least-loaded progressing via past the congestion
                # threshold; otherwise fall through to the greedy decision.
                threshold = routing.congestion_threshold
                key = current * self._key_n + dst
                cand = self._cand_cache.get(key)
                if cand is None:
                    # Quick reject: a divert needs the primary port loaded
                    # past the threshold, so if no output port of this
                    # router is, the candidate ranking is never consulted —
                    # which skips its cost on the (dominant) unloaded path.
                    if port_load is self._probe_cb:
                        loaded = False
                        for probe_port, loaded_min in self._router_probes(current):
                            if probe_port.count >= loaded_min:
                                loaded = True
                                break
                    elif port_load in self._class_cbs:
                        # Class-aware twin of the int quick-reject: the
                        # probe sums the queued counts of the classes in
                        # the closure's priority group against the same
                        # precomputed integer threshold (port caps are
                        # class-independent, so loaded_min transfers).
                        ids = port_load.qos_ids
                        loaded = False
                        for probe_port, loaded_min in self._router_probes(current):
                            queued = 0
                            for k in ids:
                                queued += probe_port.cls_count[k]
                            if queued >= loaded_min:
                                loaded = True
                                break
                    else:
                        loaded = any(
                            port_load(current, nbr) >= threshold
                            for nbr in routing.usable_neighbors(current)
                        )
                    if loaded:
                        cand = tuple(routing.candidate_set(current, dst))
                        self._cand_cache[key] = cand
                if cand is not None and len(cand) > 1 and (
                    port_load(current, cand[0][1]) >= threshold
                ):
                    _score, nxt = min(
                        cand,
                        key=lambda item: (
                            port_load(current, item[1]), item[0], item[1]
                        ),
                    )
                    return nxt
            if entry >= 0:
                nxt, commit = divmod(entry, stride)
                packet.commit = commit - 1
                return nxt
        # Commit/fallback state, the fallback walk, or a network above
        # the kernel gate: the scalar decision.
        state = RouteState(None if commit < 0 else commit, packet.fallback_md)
        nxt, state = routing.next_hop(current, dst, None, state)
        packet.commit = -1 if state.commit is None else state.commit
        packet.fallback_md = state.fallback_md
        if state.in_fallback:
            packet.fallback_hops += 1
        return nxt

    def select_vc(self, src: int, dst: int) -> int:
        keys = self.vc_keys
        return 0 if self.num_vcs < 2 else select_virtual_channel(keys[src], keys[dst])

    def on_reconfigure(self) -> None:
        # The refresh bumps ``routing.version``, which drops the
        # decision columns and, on the next forward, the candidate memo.
        self.routing.refresh_views()


class MinimalPolicy(RoutingPolicy):
    """Minimal (shortest-path) routing over any graph, memory-scalable.

    Stores an all-pairs distance matrix (int16, a few MB even at 1296
    nodes) instead of explicit next-hop tables; the minimal candidate
    set at each hop is recomputed from the neighbor list, which is
    cheap because router radix is small.  Deterministic mode always
    takes the first candidate under *preference* ordering; adaptive
    mode (the paper's "minimal + adaptive" / "greedy + adaptive"
    schemes for mesh and flattened butterfly) diverts to the least
    loaded minimal port past the congestion threshold.

    Routes are minimal, so hop counts strictly decrease — loop-free by
    construction.  Deadlock handling matches the String Figure runs:
    two VCs split by endpoint order plus the simulator's escape-buffer
    recovery, keeping flow control identical across topology baselines.
    """

    #: Node order: a ``range`` indexes as the identity, so every node
    #: id (including ones outside a repaired graph) is its own key.
    vc_keys = range(1 << 62)

    def __init__(
        self,
        graph,
        adaptive: bool = True,
        congestion_threshold: float = 0.5,
        num_vcs: int = 2,
        preference: Callable[[int, int, int], float] | None = None,
    ) -> None:
        import networkx as nx
        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        self.adaptive = adaptive
        self.congestion_threshold = congestion_threshold
        self.num_vcs = num_vcs
        self.preference = preference
        nodes = sorted(graph.nodes())
        self._ids = nodes
        self._index = {node: i for i, node in enumerate(nodes)}
        n = len(nodes)
        adj = nx.to_scipy_sparse_array(graph, nodelist=nodes, format="csr")
        dist = shortest_path(
            csr_matrix(adj), method="D", unweighted=True, directed=graph.is_directed()
        )
        if np.isinf(dist).any():
            raise ValueError("graph is not connected; minimal routing undefined")
        self._dist = dist.astype(np.int32)
        self._neighbors: dict[int, list[int]] = {
            node: sorted(graph.successors(node))
            if graph.is_directed()
            else sorted(graph.neighbors(node))
            for node in nodes
        }
        # Minimal candidate sets are a pure function of the static
        # distance matrix, so they are filled lazily *per destination*:
        # the first packet toward a destination runs one vectorized
        # comparison over the flat adjacency below (the DM cold-path
        # hot spot), and each router's candidate list then materializes
        # from two array slices on its first visit.
        counts = [len(self._neighbors[node]) for node in nodes]
        ptr = [0] * (n + 1)
        for i, c in enumerate(counts):
            ptr[i + 1] = ptr[i] + c
        self._nbr_ptr = ptr  # plain list: scalar access on the hot path
        self._nbr_flat_ids = [w for node in nodes for w in self._neighbors[node]]
        self._nbr_flat_idx = np.array(
            [self._index[w] for w in self._nbr_flat_ids], dtype=np.int64
        )
        self._nbr_row_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
        #: dst -> (flat progress mask as a list, {router -> candidates}).
        self._dst_cand: dict[int, tuple] = {}

    def distance(self, src: int, dst: int) -> int:
        """Shortest-path distance between two nodes."""
        return int(self._dist[self._index[src], self._index[dst]])

    def candidates(self, current: int, dst: int) -> list[int]:
        """Neighbors on a minimal path from *current* to *dst*."""
        di = self._index[dst]
        d = self._dist[self._index[current], di]
        result = [
            w for w in self._neighbors[current] if self._dist[self._index[w], di] < d
        ]
        if self.preference is not None:
            result.sort(key=lambda w: (self.preference(current, dst, w), w))
        return result

    def _fill_destination(self, dst: int):
        """Progress mask of *every* adjacency toward *dst*, one numpy pass.

        The heavy part of a cold candidate computation — comparing each
        neighbor's distance-to-dst against its router's own — runs once
        per destination, vectorized over the whole flat adjacency, and
        lands as a plain bool list.  Per-router candidate *lists* then
        materialize lazily on first visit from a pure-python slice (a
        short sweep touches a sparse subset of routers per destination,
        so eager list building would dominate at scale, and per-pair
        numpy fancy indexing costs more than it saves at radix 4-8).
        Matches :meth:`candidates` element-for-element: the flat
        adjacency preserves the sorted-neighbor order, so the refactor
        cannot change any forwarding decision.
        """
        dcol = self._dist[:, self._index[dst]]
        mask = dcol[self._nbr_flat_idx] < dcol[self._nbr_row_idx]
        entry = (mask.tolist(), {})
        self._dst_cand[dst] = entry
        return entry

    def forward(
        self, current: int, packet: Packet, port_load: PortLoad, first_hop: bool
    ) -> int:
        dst = packet.dst
        entry = self._dst_cand.get(dst)
        if entry is None:
            entry = self._fill_destination(dst)
        mask, per_node = entry
        options = per_node.get(current)
        if options is None:
            ptr = self._nbr_ptr
            i = self._index[current]
            lo, hi = ptr[i], ptr[i + 1]
            flat = self._nbr_flat_ids
            options = [flat[j] for j in range(lo, hi) if mask[j]]
            if self.preference is not None:
                options.sort(key=lambda w: (self.preference(current, dst, w), w))
            per_node[current] = options
        primary = options[0]
        if not self.adaptive or len(options) == 1:
            return primary
        if port_load(current, primary) < self.congestion_threshold:
            return primary
        return min(options, key=lambda w: (port_load(current, w), w))

    def select_vc(self, src: int, dst: int) -> int:
        return 0 if self.num_vcs < 2 or src <= dst else 1

    def on_reconfigure(self) -> None:
        self._dst_cand.clear()

    def route_length(self, src: int, dst: int) -> int:
        """Hop count of the (minimal) route — equals graph distance."""
        return self.distance(src, dst)
