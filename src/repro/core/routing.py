"""Greediest and adaptive greediest routing (paper §III-B).

Forwarding a packet from node ``s`` toward destination ``t``:

1. Compute the minimum circular distance ``MD`` to ``t`` of every
   usable node in the router's *table window* — its one-hop and two-hop
   neighbors (a fixed, small number of numeric comparisons; no global
   state, no link-state broadcast).
2. The candidate *targets* are window nodes with ``MD`` strictly below
   the current node's own (the paper's strict-progress requirement,
   extended to the two-hop window per its "we compute MD with both one-
   and two-hop neighbor information" design point).
3. *Greediest* selection forwards toward the window target with the
   smallest ``MD``.  When that target is a two-hop neighbor whose via
   does not itself make progress, the packet carries a one-entry
   *commit* so the intermediate router forwards it on; the sequence of
   decision points therefore has strictly decreasing ``MD``, which
   keeps routes loop-free (paper Appendix A, Proposition 3).
4. *Adaptive* selection (first hop only, following the paper) diverts
   to a lightly-loaded output port among the progressing vias when the
   greediest port's queue is filled beyond a threshold.

If no window target makes progress — possible only on a degraded
(reconfigured or quantized) topology — a space-0 ring fallback walks
clockwise.  Like GPSR's perimeter mode, the packet records the ``MD``
at fallback entry and keeps walking (strictly reducing the clockwise
space-0 distance each step, hence terminating) until it reaches a node
whose ``MD`` is below the recorded value, where greedy mode resumes.
Every fallback phase ends at a strictly smaller ``MD`` than the
previous one, so the combined protocol still delivers in finitely many
hops as long as the active space-0 ring is intact — which the
reconfiguration manager's shortcut patching rule guarantees.  Fallback
hops are counted so experiments can report them (zero on intact
networks).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.core.coordinates import clockwise_distance
from repro.core.routing_table import RoutingTable
from repro.core.topology import LinkDirection, StringFigureTopology
from repro.core.virtual_channels import select_virtual_channel

__all__ = [
    "GreediestRouting",
    "AdaptiveGreediestRouting",
    "RouteResult",
    "RouteState",
]


class RouteState:
    """Per-packet routing state carried in the packet header.

    ``commit`` is the node id the packet must be forwarded to next (set
    when a two-hop window target was chosen through a non-progressing
    via); ``fallback_md`` is the ``MD`` recorded when the space-0 ring
    fallback was entered, or ``None`` in greedy mode.  Hardware cost:
    one node id plus one 7-bit distance — a few bytes in the header.
    """

    __slots__ = ("commit", "fallback_md")

    def __init__(
        self, commit: int | None = None, fallback_md: float | None = None
    ) -> None:
        self.commit = commit
        self.fallback_md = fallback_md

    @property
    def in_fallback(self) -> bool:
        return self.fallback_md is not None

    def __repr__(self) -> str:
        return f"RouteState(commit={self.commit}, fallback_md={self.fallback_md})"


class RouteResult:
    """A computed route with bookkeeping for experiments."""

    __slots__ = ("path", "fallback_hops")

    def __init__(self, path: list[int], fallback_hops: int) -> None:
        self.path = path
        self.fallback_hops = fallback_hops

    @property
    def hops(self) -> int:
        return len(self.path) - 1

    def __repr__(self) -> str:
        return f"RouteResult(hops={self.hops}, fallback={self.fallback_hops})"


class _NodeView:
    """Vectorized snapshot of one router's usable table window.

    All per-decision distance math runs over ``all_coords`` — one
    contiguous ``(1 + window, width)`` matrix whose row 0 is the owning
    router and whose next ``k`` rows are its one-hop neighbors (the
    window lists one-hop entries first) — so a forwarding decision
    costs a single vectorized MD kernel instead of three separate
    array builds.  ``via_idx``/``inf_mask`` are the per-target via
    positions and the masked-min penalty matrix, precomputed once per
    (re)build rather than per packet.  ``window`` is the
    :meth:`RoutingTable.usable_window` the view was built from: it
    determines every array, so an equal window means an equal view.
    """

    __slots__ = (
        "window",
        "k",
        "nbr_ids",
        "nbr_coords",
        "win_ids",
        "win_hop",
        "via_idx",
        "inf_mask",
        "all_coords",
        "scratch",
        "scratch2",
        "md_out",
        "id_to_nbr_index",
    )

    def __init__(self, window, coord_matrix: np.ndarray, owner: int) -> None:
        self.window = window
        ids, hops, self.via_idx = zip(*window) if window else ((), (), ())
        k = self.k = hops.count(1)
        m = len(window)
        # Row 0 is the owner; indexing with an id array copies every row
        # out of the shared coordinate matrix, so the result is contiguous.
        all_ids = np.array((owner, *ids), dtype=np.int64)
        self.win_ids = all_ids[1:]
        self.nbr_ids = all_ids[1 : k + 1]
        self.win_hop = np.array(hops, dtype=np.int64)
        self.all_coords = coord_matrix[all_ids]
        self.nbr_coords = self.all_coords[1 : k + 1]
        # Adding this to a broadcast win_md row reproduces
        # np.where(mask, win_md, inf) without building the where() per
        # decision (x + 0.0 == x exactly; x + inf == inf).  It is filled
        # in one assignment from the window's via positions.
        self.inf_mask = np.full((k, m), np.inf)
        self.inf_mask[
            [i for vias in self.via_idx for i in vias],
            [j for j, vias in enumerate(self.via_idx) for _ in vias],
        ] = 0.0
        # Per-decision scratch space for the fused MD kernel: the
        # result buffer is valid only until the next call on this view,
        # which every caller satisfies (consume-before-recompute).
        self.scratch = np.empty_like(self.all_coords)
        self.scratch2 = np.empty_like(self.all_coords)
        self.md_out = np.empty(self.all_coords.shape[0], dtype=np.float64)
        self.id_to_nbr_index = {node: i for i, node in enumerate(ids[:k])}


class GreediestRouting:
    """Greediest routing over a String Figure (or S2) topology.

    Parameters
    ----------
    topology:
        A :class:`~repro.core.topology.StringFigureTopology`.
    use_two_hop:
        Use the two-hop window from the routing table (the paper's
        default per its sensitivity study); with ``False`` only one-hop
        ``MD`` drives decisions.
    """

    num_vcs = 2

    #: Per-router decision tables materialize only below this node
    #: count: the shared pairwise MD matrix is O(N^2) floats (a 10k-node
    #: network would need ~800 MB), and a cold sweep touches too few
    #: (router, dst) pairs per router to amortize an (m, N) kernel pass
    #: at that scale.  Above the gate every lookup takes the scalar
    #: path, which stays bit-identical by construction.
    kernel_max_nodes = 4096

    def __init__(
        self,
        topology: StringFigureTopology,
        use_two_hop: bool = True,
    ) -> None:
        self.topology = topology
        self.use_two_hop = use_two_hop
        self._uni = topology.direction is LinkDirection.UNI
        self.tables: dict[int, RoutingTable] = {}
        self._views: dict[int, _NodeView] = {}
        #: Bumped on every table/view (re)build so decision caches keyed
        #: on the old tables (e.g. GreedyPolicy's) auto-invalidate —
        #: offline reconfiguration never tells policies about itself.
        self.version = 0
        self._coord_matrix = np.array(
            [topology.coords.vector(v) for v in range(topology.num_nodes)],
            dtype=np.float64,
        )
        #: Pairwise MD matrix shared by every router's decision table;
        #: a pure function of node coordinates, so it survives table
        #: rebuilds (reconfiguration flips table bits, never coords).
        self._md_matrix: np.ndarray | None = None
        #: node -> (next, commit, valid) lists, or False when the
        #: kernel is disabled for that router (empty window / size
        #: gate).  Dropped whenever ``version`` moves.
        self._kernel_tables: dict[int, tuple | bool] = {}
        self._kernel_version = -1
        self.rebuild()

    # -- table management -----------------------------------------------------

    def rebuild(self, nodes: Sequence[int] | None = None) -> None:
        """(Re)build routing tables for *nodes* (default: every active node).

        Afterwards every listed active router's table equals a fresh
        :meth:`RoutingTable.build` with every bit clear, and inactive
        routers are dropped.  A table whose neighborhood is unchanged
        since its last build, and which carries no repair mutation, is
        kept with its blocking bits cleared instead of being rebuilt.
        """
        self.version += 1
        topo = self.topology
        targets = topo.active_nodes if nodes is None else nodes
        active_out: dict[int, tuple[int, ...]] = {}
        for v in targets:
            if not topo.is_active(v):
                self.tables.pop(v, None)
                self._views.pop(v, None)
                continue
            neighborhood = RoutingTable.neighborhood(topo, v, active_out)
            table = self.tables.get(v)
            if table is None or table.mutated or table.built_from != neighborhood:
                table = self.tables[v] = RoutingTable.build(topo, v, neighborhood)
            else:
                table.unblock_all()
            self._snapshot(v, table.fresh_window)

    def refresh_views(self, nodes: Sequence[int] | None = None) -> None:
        """Re-snapshot vectorized views after manual table bit flips."""
        self.version += 1
        for v in list(self.tables if nodes is None else nodes):
            table = self.tables.get(v)
            if table is not None:
                self._snapshot(v, table.usable_window())

    def _snapshot(self, node: int, window: tuple) -> None:
        """Rebuild *node*'s view only if its usable *window* changed."""
        view = self._views.get(node)
        if view is None or view.window != window:
            self._views[node] = _NodeView(window, self._coord_matrix, node)

    def table(self, node: int) -> RoutingTable:
        """Routing table of *node*."""
        return self.tables[node]

    # -- distance helpers --------------------------------------------------------

    def _md_array(self, coords: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorized MD from each row of *coords* to *dst*."""
        if self._uni:
            d = (dst - coords) % 1.0
        else:
            d = np.abs(coords - dst)
            d = np.minimum(d, 1.0 - d)
        if d.ndim == 1:
            return d.min()
        return d.min(axis=1)

    def md(self, a: int, b: int) -> float:
        """MD between two nodes using this topology's distance convention."""
        return float(self._md_array(self._coord_matrix[a], self._coord_matrix[b]))

    def md_to_coords(self, node: int, dst_coords: Sequence[float]) -> float:
        """MD from *node* to a destination coordinate vector."""
        return float(
            self._md_array(
                self._coord_matrix[node], np.asarray(dst_coords, dtype=np.float64)
            )
        )

    def dst_vector(self, dst: int) -> np.ndarray:
        """Destination coordinate vector (written into packet headers)."""
        return self._coord_matrix[dst]

    def _window_md(self, view: _NodeView, dst_vec: np.ndarray) -> np.ndarray:
        """MD to *dst_vec* of ``[owner, *window]`` in one vectorized pass.

        Row 0 is the owning router's own MD; rows ``1..k`` are the
        one-hop neighbors (the window lists them first); the rest are
        two-hop targets.  Identical floating-point operations (and thus
        bit-identical results) to per-array :meth:`_md_array` calls —
        the fusion only removes per-call dispatch overhead, which is
        what the simulator fast path leans on.
        """
        coords = view.all_coords
        d = view.scratch
        if self._uni:
            np.subtract(dst_vec, coords, out=d)
            np.mod(d, 1.0, out=d)
        else:
            np.subtract(coords, dst_vec, out=d)
            np.abs(d, out=d)
            wrap = np.subtract(1.0, d, out=view.scratch2)
            np.minimum(d, wrap, out=d)
        return d.min(axis=1, out=view.md_out)

    # -- per-router decision-table kernels -------------------------------------

    def _full_md_matrix(self) -> np.ndarray:
        """``M[a, b]`` = MD from node *a* to node *b*, built once.

        Elementwise operations match :meth:`_md_array` exactly
        (subtract, mod / abs + wrap-minimum, min over spaces), so every
        entry is bit-identical to the scalar per-pair computation.
        """
        m = self._md_matrix
        if m is None:
            coords = self._coord_matrix
            if self._uni:
                d = (coords[None, :, :] - coords[:, None, :]) % 1.0
            else:
                d = np.abs(coords[:, None, :] - coords[None, :, :])
                np.minimum(d, 1.0 - d, out=d)
            m = np.ascontiguousarray(d.min(axis=2))
            self._md_matrix = m
        return m

    def _build_decision_table(self, current: int) -> tuple | bool:
        """All-destination greedy decisions of one router, vectorized.

        Returns ``(next, commit, valid)`` plain lists indexed by
        destination id (``commit`` uses ``-1`` for "no commit"), or
        ``False`` when the kernel does not apply to this router.  A
        destination with ``valid[dst] == False`` (no strict-progress
        window target: the fallback ring walk) must take the scalar
        path.  Tie-breaking matches :meth:`_greedy_choice` operation
        for operation: first-minimum ``argmin`` over the same window
        row order, and the ``+ inf_mask`` masked via argmin over the
        same ascending neighbor order.
        """
        view = self._views.get(current)
        if view is None or view.k == 0:
            return False
        n = self.topology.num_nodes
        if n > self.kernel_max_nodes:
            return False
        md = self._full_md_matrix()
        my_md = md[current]
        nbr_md = md[view.nbr_ids]
        every = np.arange(n)
        if self.use_two_hop:
            win_md = md[view.win_ids]
            target = win_md.argmin(axis=0)
            valid = win_md[target, every] < my_md
            via = (nbr_md + view.inf_mask[:, target]).argmin(axis=0)
            nxt = view.nbr_ids[via]
            commit = np.where(
                (view.win_hop[target] == 2) & (nbr_md[via, every] >= my_md),
                view.win_ids[target],
                -1,
            )
        else:
            best = nbr_md.argmin(axis=0)
            valid = nbr_md[best, every] < my_md
            nxt = view.nbr_ids[best]
            commit = np.full(n, -1, dtype=np.int64)
        # Direct delivery always wins, before any window comparison.
        for b in view.nbr_ids:
            nxt[b] = b
            commit[b] = -1
            valid[b] = True
        valid[current] = False
        return (nxt.tolist(), commit.tolist(), valid.tolist())

    def kernel_next_hop(
        self, current: int, dst: int
    ) -> tuple[int, int | None] | None:
        """Plain-greedy ``(next, commit)`` from the router's decision
        table, or ``None`` when the scalar path must run (kernel gated
        off, or *dst* needs the fallback walk).

        Tables are dropped whenever ``version`` moves, so reconfig and
        fault-repair rebuilds invalidate them exactly like the policy
        decision caches.
        """
        if self._kernel_version != self.version:
            self._kernel_tables.clear()
            self._kernel_version = self.version
        table = self._kernel_tables.get(current)
        if table is None:
            table = self._build_decision_table(current)
            self._kernel_tables[current] = table
        if table is False:
            return None
        nxt, commit, valid = table
        if not valid[dst]:
            return None
        c = commit[dst]
        return nxt[dst], (c if c >= 0 else None)

    # -- forwarding ----------------------------------------------------------------

    def is_direct(self, current: int, dst: int) -> bool:
        """Whether *dst* is a usable one-hop neighbor of *current*."""
        return dst in self._views[current].id_to_nbr_index

    def usable_neighbors(self, current: int):
        """The usable one-hop neighbor ids of *current* (iterable)."""
        return self._views[current].id_to_nbr_index.keys()

    def candidate_set(
        self, current: int, dst: int, dst_coords: Sequence[float] | None = None
    ) -> list[tuple[float, int]]:
        """Progressing vias with look-ahead scores, best-first.

        Returns ``(score, via)`` pairs where *score* is the best window
        ``MD`` reachable through the via within two hops; only vias
        whose score strictly improves on the current node's ``MD`` are
        included (the paper's set ``W`` used for adaptive routing).
        """
        view = self._views[current]
        k = view.k
        if k == 0:
            return []
        dst_vec = (
            self._coord_matrix[dst]
            if dst_coords is None
            else np.asarray(dst_coords, dtype=np.float64)
        )
        md = self._window_md(view, dst_vec)
        my_md = md[0]
        nbr_md = md[1 : k + 1]
        if self.use_two_hop:
            # win_md + inf_mask == np.where(via_mask, win_md, inf),
            # with the mask matrix hoisted out of the packet path.
            scores = np.minimum(nbr_md, (md[1:] + view.inf_mask).min(axis=1))
        else:
            scores = nbr_md
        result = [
            (float(scores[i]), int(view.nbr_ids[i]))
            for i in np.flatnonzero(scores < my_md)
        ]
        result.sort(key=lambda item: (item[0], item[1]))
        return result

    def _greedy_choice(
        self, current: int, dst_vec: np.ndarray
    ) -> tuple[int, int | None] | None:
        """Greediest (via, commit) from *current*, or None if stuck.

        The commit is set when the best window target is a two-hop
        neighbor whose via does not itself make strict progress.
        """
        view = self._views[current]
        k = view.k
        if k == 0:
            return None
        md = self._window_md(view, dst_vec)
        my_md = md[0]
        nbr_md = md[1 : k + 1]
        if not self.use_two_hop:
            best = int(nbr_md.argmin())
            if nbr_md[best] >= my_md:
                return None
            return int(view.nbr_ids[best]), None
        win_md = md[1:]
        target = int(win_md.argmin())
        if win_md[target] >= my_md:
            return None
        # First minimum over ascending via positions, as argmin would.
        via = min(view.via_idx[target], key=nbr_md.__getitem__)
        via_id = int(view.nbr_ids[via])
        if view.win_hop[target] == 1:
            return via_id, None
        commit = int(view.win_ids[target]) if nbr_md[via] >= my_md else None
        return via_id, commit

    def next_hop(
        self,
        current: int,
        dst: int,
        dst_coords: Sequence[float] | None = None,
        state: RouteState | None = None,
    ) -> tuple[int, RouteState]:
        """Forward one packet one hop; returns ``(neighbor, new_state)``.

        *state* is the packet's :class:`RouteState` (``None`` = fresh
        packet).  The returned state must travel with the packet.
        """
        if state is None:
            state = RouteState()
        view = self._views[current]
        dst_vec = (
            self._coord_matrix[dst]
            if dst_coords is None
            else np.asarray(dst_coords, dtype=np.float64)
        )
        # Direct delivery always wins.
        if dst in view.id_to_nbr_index:
            return dst, RouteState()
        # Honor a pending two-hop commit if it is still a usable neighbor.
        if state.commit is not None:
            commit = state.commit
            if commit in view.id_to_nbr_index:
                return commit, RouteState(fallback_md=state.fallback_md)
            state = RouteState(fallback_md=state.fallback_md)
        # Leave fallback mode once MD has improved past the entry value.
        if state.fallback_md is not None:
            my_md = float(self._md_array(self._coord_matrix[current], dst_vec))
            if my_md < state.fallback_md:
                state = RouteState()
        if state.fallback_md is None:
            choice = self._greedy_choice(current, dst_vec)
            if choice is not None:
                via, commit = choice
                return via, RouteState(commit=commit)
            entry_md = float(self._md_array(self._coord_matrix[current], dst_vec))
            state = RouteState(fallback_md=entry_md)
        return self._fallback_hop(current, dst_vec), state

    def _fallback_hop(self, current: int, dst_vec: np.ndarray) -> int:
        """One clockwise step of the space-0 ring walk.

        Picks the usable neighbor with the smallest clockwise space-0
        distance to the destination.  The clockwise ring successor is
        always such a neighbor on an intact active ring, so the chosen
        distance strictly decreases; a non-decreasing choice means the
        ring is broken and delivery cannot be guaranteed.
        """
        view = self._views[current]
        if view.nbr_ids.size == 0:
            raise RuntimeError(f"node {current} has no usable neighbors")
        target = float(dst_vec[0])
        d = (target - view.nbr_coords[:, 0]) % 1.0
        best = int(np.argmin(d))
        my_dcw = clockwise_distance(
            float(self._coord_matrix[current][0]), target
        )
        if float(d[best]) >= my_dcw:
            raise RuntimeError(
                f"space-0 ring broken at node {current}: no clockwise progress "
                "(reconfiguration left the network unpatchable)"
            )
        return int(view.nbr_ids[best])

    def route(self, src: int, dst: int, max_hops: int | None = None) -> RouteResult:
        """Compute the full greediest route from *src* to *dst*."""
        if not self.topology.is_active(src) or not self.topology.is_active(dst):
            raise ValueError("source and destination must be active nodes")
        if max_hops is None:
            max_hops = 4 * self.topology.num_nodes
        path = [src]
        fallbacks = 0
        current = src
        dst_vec = self._coord_matrix[dst]
        state = RouteState()
        while current != dst:
            if len(path) - 1 >= max_hops:
                raise RuntimeError(
                    f"route {src}->{dst} exceeded {max_hops} hops: {path[:16]}..."
                )
            nxt, state = self.next_hop(current, dst, dst_vec, state)
            fallbacks += int(state.in_fallback)
            path.append(nxt)
            current = nxt
        return RouteResult(path, fallbacks)

    # -- simulator-facing policy interface ----------------------------------------

    def forwarding_candidates(self, current: int, dst: int) -> tuple[int, ...]:
        """Greedy candidate vias in preference order (no fallback)."""
        ranked = self.candidate_set(current, dst)
        return tuple(w for _score, w in ranked)

    def select_vc(self, src: int, dst: int) -> int:
        """Deadlock-avoidance virtual channel for a ``src -> dst`` packet."""
        coords = self.topology.coords
        return select_virtual_channel(
            coords.coordinate(src, 0), coords.coordinate(dst, 0)
        )


class AdaptiveGreediestRouting(GreediestRouting):
    """Greediest routing with the paper's adaptive first-hop selection.

    At the *source* router only, when the greediest output port's queue
    is filled beyond ``congestion_threshold`` (fraction of queue
    capacity, paper example: 50%), the packet is diverted to the least
    loaded port that still satisfies the strict-progress requirement.
    Later hops always take the greediest choice, preserving loop
    freedom.
    """

    def __init__(
        self,
        topology: StringFigureTopology,
        use_two_hop: bool = True,
        congestion_threshold: float = 0.5,
    ) -> None:
        if not 0.0 < congestion_threshold <= 1.0:
            raise ValueError(
                f"congestion_threshold must be in (0, 1], got {congestion_threshold}"
            )
        super().__init__(topology, use_two_hop=use_two_hop)
        self.congestion_threshold = congestion_threshold

    def adaptive_next_hop(
        self,
        current: int,
        dst: int,
        port_load: Callable[[int, int], float],
        first_hop: bool,
        dst_coords: Sequence[float] | None = None,
        state: RouteState | None = None,
    ) -> tuple[int, RouteState]:
        """Next hop given a ``port_load(node, neighbor) -> [0, 1]`` probe.

        ``port_load`` reports the output-queue occupancy fraction of the
        link ``current -> neighbor`` (the hardware uses per-port packet
        counters, §IV-B).  The fallback/commit state machine matches
        :meth:`GreediestRouting.next_hop`.
        """
        if state is None:
            state = RouteState()
        if not first_hop or state.commit is not None or state.in_fallback:
            return self.next_hop(current, dst, dst_coords, state)
        view = self._views[current]
        if dst in view.id_to_nbr_index:
            return dst, RouteState()
        candidates = self.candidate_set(current, dst, dst_coords)
        if not candidates:
            return self.next_hop(current, dst, dst_coords, state)
        best_score, best = candidates[0]
        if len(candidates) == 1 or port_load(current, best) < self.congestion_threshold:
            return self.next_hop(current, dst, dst_coords, state)
        _score, diverted = min(
            candidates,
            key=lambda item: (port_load(current, item[1]), item[0], item[1]),
        )
        return diverted, RouteState()
