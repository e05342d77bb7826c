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

import itertools
from array import array
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro.core.coordinates import clockwise_distance
from repro.core.routing_table import active_out
from repro.core.topology import LinkDirection, StringFigureTopology

__all__ = [
    "GreediestRouting",
    "AdaptiveGreediestRouting",
    "RingBrokenError",
    "RouteResult",
    "RouteState",
]


class RingBrokenError(RuntimeError):
    """The space-0 ring walk can make no clockwise progress at a router.

    Raised by the fallback hop when failures or reconfiguration left
    the active ring unpatchable there; a simulator with a fault layer
    counts the packet as lost instead of aborting the run.
    """


class RouteState:
    """Per-packet routing state of the scalar :meth:`GreediestRouting.
    next_hop` (a simulated packet carries the same two header fields as
    ``Packet.commit``, ``-1`` for ``None``, and ``Packet.fallback_md``).

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


def _fresh_windows(
    topology,
    out: dict[int, list[int]],
    rows: list[int],
    failed_links: set[tuple[int, int]],
    blocked: set[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The usable windows of *rows*, vectorized from the three inputs.

    *out* maps each row to :func:`active_out` of it; the rows' one-hop
    neighbors are added to it.  Returns the arrays
    :meth:`GreediestRouting._put_rows` stores: usable one-hop entries,
    then the usable two-hop nodes (active out-neighbors of one-hop
    entries, other than the router and its one-hop entries), each
    ascending.  An entry ``x`` of router ``r`` is unusable when ``x``
    is in *blocked* or the wire ``{r, x}`` is in *failed_links*,
    whatever its hop; an unusable one-hop neighbor is no via and never
    a two-hop target; a two-hop entry loses via ``a`` when ``{a, x}``
    failed, and drops when it has no usable via left.
    """
    n = topology.num_nodes
    for v in rows:
        for w in out[v]:
            if w not in out:
                out[w] = active_out(topology, w)
    lens = np.fromiter(map(len, out.values()), np.intp, len(out))
    p = max(int(lens.max(initial=0)), 1)
    # Row v: v's active out-neighbors, N-padded; row N is all padding.
    adj = np.full((n + 1, p), n, dtype=np.intp)
    flat = np.fromiter(itertools.chain.from_iterable(out.values()), np.intp)
    adj[
        np.repeat(np.fromiter(out, np.intp, len(out)), lens),
        np.arange(len(flat)) - np.repeat(np.cumsum(lens) - lens, lens),
    ] = flat
    owner = np.array(rows, dtype=np.intp)
    one = adj[owner]
    masked = bool(failed_links or blocked)
    if masked:
        off = np.zeros(n + 1, dtype=bool)
        off[list(blocked)] = True
        # Both orientations of each failed wire, as codes a * (N + 1) + b
        # (padding N never forms a failed code).
        wires = np.array(sorted(failed_links), dtype=np.intp).reshape(-1, 2)
        failed = np.concatenate((wires @ [n + 1, 1], wires @ [1, n + 1]))

        def cut(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            return off[b] | np.isin(a * (n + 1) + b, failed)

        # Padding sorts last, so the usable one-hop entries stay ascending.
        one = np.sort(np.where(cut(owner[:, None], one), n, one), axis=1)
    k = (one < n).sum(axis=1)
    # Column c of a row's candidates is reached through one-hop slot
    # c // p; the router itself and its one-hop entries are no two-hop
    # targets, and an unusable one-hop neighbor is cut as one below.
    cand = adj[one].reshape(len(rows), p * p)
    drop = (cand == owner[:, None]) | (cand[:, :, None] == one[:, None, :]).any(axis=2)
    if masked:
        drop |= cut(owner[:, None], cand) | cut(np.repeat(one, p, axis=1), cand)
    cand[drop] = n
    order = np.argsort(cand, axis=1, kind="stable")
    cand = np.take_along_axis(cand, order, axis=1)
    via_of = order // p
    valid = cand < n
    first = valid.copy()
    first[:, 1:] &= cand[:, 1:] != cand[:, :-1]
    slot = k[:, None] + first.cumsum(axis=1) - 1
    width = max(int((k + first.sum(axis=1)).max(initial=0)), p)
    win = np.full((len(rows), width), n, dtype=np.intp)
    win[:, :p] = one
    r, c = np.nonzero(first)
    win[r, slot[r, c]] = cand[r, c]
    via = np.zeros((len(rows), width, p), dtype=bool)
    diag = np.arange(p)
    via[:, diag, diag] = diag < k[:, None]
    r, c = np.nonzero(valid)
    via[r, slot[r, c], via_of[r, c]] = True
    return k, win, via


class _Row:
    """One router's stored window row as the arrays scalar decisions read.

    A cache: cut from the rows on a router's first scalar read after a
    ``version`` bump, dropped with the decision columns at the next one
    (:meth:`GreediestRouting.refresh_views`), and never written back.
    ``coords`` is one contiguous ``(1 + window, spaces)`` matrix whose
    row 0 is the router and whose rows ``1..k`` are its one-hop entries,
    so a decision costs one fused MD kernel; ``inf_mask`` is the
    masked-min penalty matrix of the via relation.
    """

    __slots__ = ("k", "ids", "vias", "inf_mask", "coords", "scratch", "scratch2", "md_out")

    def __init__(self, routing: GreediestRouting, node: int) -> None:
        row = routing._win[node]
        m = int((row < routing.topology.num_nodes).sum())
        k = self.k = int(routing._win_k[node])
        is_via = routing._win_via[node, :m, :k]
        # Row 0 is the owner; indexing with an id array copies every row
        # out of the shared coordinate matrix, so the result is contiguous.
        ids = np.concatenate(([node], row[:m]))
        self.ids = ids[1:]
        #: Each entry's usable via positions, ascending.
        self.vias = [np.flatnonzero(v).tolist() for v in is_via]
        # Adding this to a broadcast window-MD row reproduces
        # np.where(mask, md, inf) without building the where() per
        # decision (x + 0.0 == x exactly; x + inf == inf).
        self.inf_mask = np.where(is_via.T, 0.0, np.inf)
        self.coords = routing._coord_matrix[ids]
        # Scratch space for the fused MD kernel: the result buffer is
        # valid only until the next call on this row, which every
        # caller satisfies (consume-before-recompute).
        self.scratch = np.empty_like(self.coords)
        self.scratch2 = np.empty_like(self.coords)
        self.md_out = np.empty(m + 1)


class _DecisionColumns:
    """Padded window arrays that decide every router's greedy hop
    toward one destination at a time.

    Row ``r`` holds router ``r``'s usable window in its row's order
    (one-hop entries first), or only its one-hop entries when two-hop
    routing is off.  Every row is at least one slot longer than the
    longest window; padding slots, and the rows of inactive or
    neighborless routers, read MD ``inf``, so they never win a minimum
    or pass the progress test.  Cut from the routing's window rows
    (:meth:`GreediestRouting._put_rows`), once per routing ``version``.
    """

    def __init__(self, routing: GreediestRouting) -> None:
        n = routing.topology.num_nodes
        stored = routing._win
        k_of = routing._win_k
        m_of = (stored < n).sum(axis=1) if routing.use_two_hop else k_of
        k_max = max(int(k_of.max(initial=0)), 1)
        width = 1 + int(m_of.max(initial=0))
        w = min(width, stored.shape[1])
        slot = np.arange(w)
        live = slot < m_of[:, None]
        self.uni = routing._uni
        #: (spaces, N): each space's coordinates contiguous.
        self.coord_cols = np.ascontiguousarray(routing._coord_matrix.T)
        #: MD of every node to the destination being decided; entry N
        #: is what padding slots read, and stays inf.
        self.md = np.full(n + 1, np.inf)
        #: Window node ids, N in padding slots.
        win_idx = self.win_idx = np.full((n, width), n, dtype=np.intp)
        win_idx[:, :w] = np.where(live, stored[:, :w], n)
        two_hop = np.zeros((n, width), dtype=bool)
        two_hop[:, :w] = live & (slot >= k_of[:, None])
        # is_via[r, j, i]: one-hop slot i is a usable via of slot j.
        is_via = np.zeros((n, width, k_max), dtype=bool)
        if routing.use_two_hop:
            is_via[:, :w] = routing._win_via[:, :w, :k_max] & live[:, :, None]
        else:
            diag = np.arange(k_max)
            is_via[:, diag, diag] = diag < k_of[:, None]
        self.win_md = np.empty((n, width))
        self.flat_idx = win_idx.ravel()
        self.flat_md = self.win_md.ravel()
        self.row_base = np.arange(0, n * width, width)
        self.two_hop = two_hop.ravel()
        # vias[v][r * width + j]: row position of the v-th usable via
        # (ascending) of slot j; a slot with fewer vias repeats its
        # first, which never wins the strict-less comparison against
        # itself.
        is_via = is_via.reshape(n * width, k_max)
        count = is_via.sum(axis=1)
        first = is_via.argmax(axis=1)
        seen = is_via.cumsum(axis=1)
        self.vias = tuple(
            col.astype(np.int16)
            for col in [first] + [
                np.where(count > v, (seen == v + 1).argmax(axis=1), first)
                for v in range(1, int(count.max(initial=0)))
            ]
        )
        # CSR of the routers that have each node as a usable neighbor.
        is_nbr = np.arange(k_max) < k_of[:, None]
        owner = np.nonzero(is_nbr)[0]
        nbr = win_idx[:, :k_max][is_nbr]
        order = np.argsort(nbr, kind="stable")
        self.direct_owner = owner[order]
        self.direct_start = np.searchsorted(nbr[order], np.arange(n + 1))

    def column(self, dst: int) -> array:
        """Every router's greedy decision toward *dst*, as one buffer.

        Entry ``r`` packs router ``r``'s ``(next, commit)`` as
        ``next * (N + 1) + commit + 1`` (``commit + 1 == 0``: no
        commit), or is ``-1`` when the scalar path must decide: no
        strict-progress window target (the fallback ring walk), an
        empty window, an inactive router, or ``r == dst``.  One MD
        vector, column *dst* of the pairwise MD relation, feeds every
        router at once.  Tie-breaking matches
        :meth:`GreediestRouting._greedy_choice`: first-minimum
        ``argmin`` over the same window row order, then the first
        minimum over the target's vias in ascending order.  Direct
        delivery to a usable neighbor wins over any window comparison.
        """
        # The operations of _md_array, over contiguous per-space rows
        # (min is exact, so every value matches it bit for bit).
        cols = self.coord_cols
        dst_col = cols[:, dst, None]
        if self.uni:
            d = dst_col - cols
            np.mod(d, 1.0, out=d)
        else:
            d = cols - dst_col
            np.abs(d, out=d)
            np.minimum(d, 1.0 - d, out=d)
        n = cols.shape[1]
        my_md = d.min(axis=0, out=self.md[:n])
        # Every index is in range, so "clip" only lets take() write
        # into the preallocated buffer without an intermediate copy.
        win_md = np.take(self.md, self.win_idx, out=self.win_md, mode="clip")
        target = win_md.argmin(axis=1)
        row_base = self.row_base
        target += row_base
        flat_md = self.flat_md
        vias = self.vias
        via = vias[0][target] + row_base
        via_md = flat_md[via]
        for more in vias[1:]:
            alt = more[target] + row_base
            alt_md = flat_md[alt]
            np.copyto(via, alt, where=alt_md < via_md)
            np.minimum(via_md, alt_md, out=via_md)
        flat_idx = self.flat_idx
        stride = n + 1
        packed = flat_idx[via]
        packed *= stride
        # A two-hop target reached through a non-progressing via
        # commits: add the target id + 1.
        commit = flat_idx[target]
        commit += 1
        commit *= self.two_hop[target]
        commit *= via_md >= my_md
        packed += commit
        np.copyto(packed, -1, where=flat_md[target] >= my_md)
        start = self.direct_start
        packed[self.direct_owner[start[dst] : start[dst + 1]]] = dst * stride
        return array("i", packed.astype(np.int32).tobytes())


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

    #: Decision columns materialize only up to this node count.  Each
    #: touched destination holds one 4-byte entry per router, 4 * N
    #: bytes (16 KiB per destination and at most 64 MiB in all at 4096
    #: nodes), beside padded window arrays of 17 + 2 * vias bytes per
    #: window slot (~2 MB at N=1296) shared by every column.  Those are
    #: cut from the window rows every router keeps, 8 + p bytes per
    #: slot for p-port routers (1.3 MB at N=1296), the only routing
    #: state; a router a scalar decision reads adds its row arrays
    #: (:class:`_Row`, ~17 KB at N=1296) until the next ``version``
    #: bump.  A column also costs one pass over every router's window,
    #: which a cold sweep of a much larger network reads too few times
    #: per destination to amortize.  Above the gate every lookup takes
    #: the scalar path, which stays bit-identical by construction.
    kernel_max_nodes = 4096

    def __init__(
        self,
        topology: StringFigureTopology,
        use_two_hop: bool = True,
    ) -> None:
        self.topology = topology
        self.use_two_hop = use_two_hop
        self._uni = topology.direction is LinkDirection.UNI
        n = topology.num_nodes
        #: With the active topology, the two inputs every window is a
        #: function of (:meth:`rebuild`): the failed wires routed
        #: around, as ``(min, max)`` pairs, and the nodes a live
        #: gate-off blocked.  A writer records its change here, then
        #: rebuilds the rows of the routers it touched.
        self.failed_links: set[tuple[int, int]] = set()
        self.blocked: set[int] = set()
        #: Every router's usable window as padded rows (see
        #: :meth:`_put_rows`).
        self._win_k = np.zeros(n, dtype=np.intp)
        self._win = np.empty((n, 0), dtype=np.intp)
        self._win_via = np.empty((n, 0, 0), dtype=bool)
        #: Bumped on every rebuild so memos keyed on the old windows
        #: (the decision columns, the scalar row arrays, GreedyPolicy's
        #: candidate memo) auto-invalidate — offline reconfiguration
        #: never tells policies about itself.
        self.version = 0
        self._coord_matrix = np.array(
            [topology.coords.vector(v) for v in range(n)],
            dtype=np.float64,
        )
        #: dst -> packed decision of every router (see :meth:`column`),
        #: and the padded window arrays the columns are computed from.
        #: Both are dropped whenever ``version`` moves; the dict is
        #: cleared in place, so a reader may hold on to it.
        self.columns: dict[int, array] = {}
        self.column_stride = n + 1
        self._kernel_state: _DecisionColumns | None = None
        #: router -> its row arrays for scalar decisions, dropped with
        #: the columns.
        self._rows: dict[int, _Row] = {}
        #: active router -> {usable one-hop neighbor: index} of its
        #: window.  Updated in place: GreedyPolicy holds this dict.
        self.nbr_index: dict[int, dict[int, int]] = {}
        self.rebuild()

    # -- window rows -------------------------------------------------------------

    def rebuild(self, nodes: Iterable[int] | None = None) -> None:
        """Recompute the rows of *nodes* (default: every router).

        A router's row is a function of the active topology,
        :attr:`failed_links` and :attr:`blocked` (:func:`_fresh_windows`);
        inactive routers drop out of ``nbr_index``.  Every writer of
        those inputs calls this with the routers whose rows can have
        changed, and the call bumps ``version``.
        """
        self.refresh_views()
        topo = self.topology
        rows = list(range(topo.num_nodes) if nodes is None else nodes)
        if not rows:
            return
        out = {v: active_out(topo, v) for v in rows}
        k, win, via = _fresh_windows(topo, out, rows, self.failed_links, self.blocked)
        for v, kv, row in zip(rows, k.tolist(), win):
            if topo.is_active(v):
                # The usable one-hop entries are out[v] less any cut ones.
                ids = out[v] if kv == len(out[v]) else row[:kv].tolist()
                self.nbr_index[v] = {w: i for i, w in enumerate(ids)}
            else:
                self.nbr_index.pop(v, None)
        self._put_rows(rows, k, win, via)

    def refresh_views(self) -> None:
        """Bump ``version``; drop the decision columns and scalar row
        arrays cut from the old rows."""
        self.version += 1
        self.columns.clear()
        self._kernel_state = None
        self._rows.clear()

    def _put_rows(
        self, rows: list[int], k: np.ndarray, win: np.ndarray, via: np.ndarray
    ) -> None:
        """Store the usable windows of *rows*: one-hop counts ``k``,
        window ids ``win`` (one-hop entries first, then two-hop, N in
        padding) and ``via[r, j, i]``, whether one-hop slot ``i`` is a
        usable via of slot ``j``.  The store widens as needed."""
        n = self.topology.num_nodes
        width, kk = win.shape[1], via.shape[2]
        dw = max(width - self._win.shape[1], 0)
        dk = max(kk - self._win_via.shape[2], 0)
        if dw or dk:
            self._win = np.pad(self._win, ((0, 0), (0, dw)), constant_values=n)
            self._win_via = np.pad(self._win_via, ((0, 0), (0, dw), (0, dk)))
        self._win[rows] = n
        self._win[rows, :width] = win
        self._win_via[rows] = False
        self._win_via[rows, :width, :kk] = via
        self._win_k[rows] = k

    def window(self, node: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """*node*'s usable window as ``(node, hop, vias)`` rows: one-hop
        entries, then two-hop entries, each ascending; ``vias`` holds
        the positions, ascending, of the entry's usable vias among the
        one-hop rows (a one-hop entry is its own via)."""
        ids = self._win[node]
        k = int(self._win_k[node])
        m = int((ids < self.topology.num_nodes).sum())
        return tuple(
            (int(ids[j]), 1 if j < k else 2, tuple(np.flatnonzero(vias[:k]).tolist()))
            for j, vias in enumerate(self._win_via[node, :m])
        )

    def routers_listing(self, nodes: Iterable[int]) -> list[int]:
        """Every active router whose window can list one of the active
        *nodes*: their active in-neighbors and those neighbors' own,
        ascending."""
        in_neighbors = self.topology.in_neighbors
        found: set[int] = set()
        for x in nodes:
            for r in in_neighbors(x):
                found.add(r)
                found.update(in_neighbors(r))
        return sorted(found)

    def _row(self, node: int) -> _Row:
        """*node*'s row arrays, cut on first read after a bump (KeyError
        for an inactive router, which has no window)."""
        row = self._rows.get(node)
        if row is None:
            if node not in self.nbr_index:
                raise KeyError(node)
            row = self._rows[node] = _Row(self, node)
        return row

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

    def _window_md(self, row: _Row, dst_vec: np.ndarray) -> np.ndarray:
        """MD to *dst_vec* of ``[owner, *window]`` in one vectorized pass.

        Row 0 is the owning router's own MD; rows ``1..k`` are the
        one-hop neighbors (the window lists them first); the rest are
        two-hop targets.  Identical floating-point operations (and thus
        bit-identical results) to per-array :meth:`_md_array` calls —
        the fusion only removes per-call dispatch overhead, which is
        what the simulator fast path leans on.
        """
        coords = row.coords
        d = row.scratch
        if self._uni:
            np.subtract(dst_vec, coords, out=d)
            np.mod(d, 1.0, out=d)
        else:
            np.subtract(coords, dst_vec, out=d)
            np.abs(d, out=d)
            wrap = np.subtract(1.0, d, out=row.scratch2)
            np.minimum(d, wrap, out=d)
        return d.min(axis=1, out=row.md_out)

    # -- destination-major decision columns ------------------------------------

    def column(self, dst: int) -> array | None:
        """*dst*'s packed decision column (:meth:`_DecisionColumns.column`:
        exactly ``dst * column_stride`` where *dst* is a usable neighbor),
        or ``None`` above ``kernel_max_nodes``.  The only memo of greedy
        decisions; every ``version`` bump drops it.
        """
        column = self.columns.get(dst)
        if column is None:
            if self.topology.num_nodes > self.kernel_max_nodes:
                return None
            state = self._kernel_state
            if state is None:
                state = self._kernel_state = _DecisionColumns(self)
            column = self.columns[dst] = state.column(dst)
        return column

    # -- forwarding ----------------------------------------------------------------

    def is_direct(self, current: int, dst: int) -> bool:
        """Whether *dst* is a usable one-hop neighbor of *current*."""
        return dst in self.nbr_index[current]

    def usable_neighbors(self, current: int):
        """The usable one-hop neighbor ids of *current* (iterable)."""
        return self.nbr_index[current].keys()

    def candidate_set(
        self, current: int, dst: int, dst_coords: Sequence[float] | None = None
    ) -> list[tuple[float, int]]:
        """Progressing vias with look-ahead scores, best-first.

        Returns ``(score, via)`` pairs where *score* is the best window
        ``MD`` reachable through the via within two hops; only vias
        whose score strictly improves on the current node's ``MD`` are
        included (the paper's set ``W`` used for adaptive routing).
        """
        row = self._row(current)
        k = row.k
        if k == 0:
            return []
        dst_vec = (
            self._coord_matrix[dst]
            if dst_coords is None
            else np.asarray(dst_coords, dtype=np.float64)
        )
        md = self._window_md(row, dst_vec)
        my_md = md[0]
        nbr_md = md[1 : k + 1]
        if self.use_two_hop:
            # win_md + inf_mask == np.where(via_mask, win_md, inf),
            # with the mask matrix hoisted out of the packet path.
            scores = np.minimum(nbr_md, (md[1:] + row.inf_mask).min(axis=1))
        else:
            scores = nbr_md
        result = [
            (float(scores[i]), int(row.ids[i]))
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
        row = self._row(current)
        k = row.k
        if k == 0:
            return None
        md = self._window_md(row, dst_vec)
        my_md = md[0]
        nbr_md = md[1 : k + 1]
        if not self.use_two_hop:
            best = int(nbr_md.argmin())
            if nbr_md[best] >= my_md:
                return None
            return int(row.ids[best]), None
        win_md = md[1:]
        target = int(win_md.argmin())
        if win_md[target] >= my_md:
            return None
        # First minimum over ascending via positions, as argmin would.
        via = min(row.vias[target], key=nbr_md.__getitem__)
        via_id = int(row.ids[via])
        if target < k:
            return via_id, None
        commit = int(row.ids[target]) if nbr_md[via] >= my_md else None
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
        usable = self.nbr_index[current]
        dst_vec = (
            self._coord_matrix[dst]
            if dst_coords is None
            else np.asarray(dst_coords, dtype=np.float64)
        )
        # Direct delivery always wins.
        if dst in usable:
            return dst, RouteState()
        # Honor a pending two-hop commit if it is still a usable neighbor.
        if state.commit is not None:
            commit = state.commit
            if commit in usable:
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
        row = self._row(current)
        if row.k == 0:
            raise RingBrokenError(f"node {current} has no usable neighbors")
        target = float(dst_vec[0])
        d = (target - row.coords[1 : row.k + 1, 0]) % 1.0
        best = int(np.argmin(d))
        my_dcw = clockwise_distance(
            float(self._coord_matrix[current][0]), target
        )
        if float(d[best]) >= my_dcw:
            raise RingBrokenError(
                f"space-0 ring broken at node {current}: no clockwise progress "
                "(reconfiguration left the network unpatchable)"
            )
        return int(row.ids[best])

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
        if dst in self.nbr_index[current]:
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
