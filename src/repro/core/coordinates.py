"""Virtual-space coordinates and circular distances (paper §III-B, Figure 4b).

String Figure places every memory node at a random coordinate in
``[0, 1)`` on the unit ring of each of its ``L`` virtual spaces.  All
routing decisions reduce to comparisons of *circular distances* between
those coordinates:

* ``D(u, v) = min(|u - v|, 1 - |u - v|)`` — the circular distance
  between two coordinates on one ring (paper's ``D``).
* ``MD(U, V) = min_i D(u_i, v_i)`` — the minimum circular distance
  between two nodes across all virtual spaces (paper's ``MD``).

For uni-directional networks the relevant notion is the *clockwise*
distance ``(v - u) mod 1``: a packet on a clockwise ring can only make
progress in one direction.

The paper's ``BalancedCoordinateGen()`` (Figure 4b) keeps each ring's
node spacing balanced — imbalanced connections concentrate congestion.
We reproduce it with best-of-k candidate sampling: each new coordinate
is the candidate (out of ``k`` uniform draws) that maximizes the minimum
circular distance to the coordinates already placed on that ring.
"""

from __future__ import annotations

import bisect
import math
import random
from collections.abc import Sequence

__all__ = [
    "circular_distance",
    "clockwise_distance",
    "min_circular_distance",
    "min_clockwise_distance",
    "quantize_coordinate",
    "balanced_coordinate",
    "CoordinateSystem",
]


def circular_distance(u: float, v: float) -> float:
    """Circular distance ``D(u, v)`` between two ring coordinates.

    Coordinates live on the unit circle ``[0, 1)``; the distance is the
    shorter of the two arcs, hence always in ``[0, 0.5]``.
    """
    d = abs(u - v)
    if d > 0.5:
        d = 1.0 - d
    return d


def clockwise_distance(u: float, v: float) -> float:
    """Clockwise (one-directional) arc length from *u* to *v* in ``[0, 1)``.

    When ``v`` is infinitesimally counter-clockwise of ``u`` the float
    modulo rounds up to 1.0; the result is clamped to the largest
    representable value below 1.0 (almost a full circle).
    """
    d = (v - u) % 1.0
    if d >= 1.0:
        return math.nextafter(1.0, 0.0)
    return d


def min_circular_distance(
    coords_u: Sequence[float], coords_v: Sequence[float]
) -> float:
    """Minimum circular distance ``MD`` across all virtual spaces.

    ``MD(U, V) = min_i D(u_i, v_i)`` where ``U`` and ``V`` are the
    coordinate vectors of two nodes (one entry per virtual space).
    """
    if len(coords_u) != len(coords_v):
        raise ValueError(
            f"coordinate vectors differ in length: {len(coords_u)} != {len(coords_v)}"
        )
    best = 0.5
    for u, v in zip(coords_u, coords_v):
        d = abs(u - v)
        if d > 0.5:
            d = 1.0 - d
        if d < best:
            best = d
    return best


def min_clockwise_distance(
    coords_u: Sequence[float], coords_v: Sequence[float]
) -> float:
    """Minimum clockwise distance across all virtual spaces (uni-directional)."""
    if len(coords_u) != len(coords_v):
        raise ValueError(
            f"coordinate vectors differ in length: {len(coords_u)} != {len(coords_v)}"
        )
    return min(clockwise_distance(u, v) for u, v in zip(coords_u, coords_v))


def quantize_coordinate(coord: float, bits: int = 7) -> float:
    """Round *coord* onto the ``2**bits`` grid used by hardware tables.

    The paper's routing table stores 7-bit virtual coordinates
    (Figure 6b).  Quantization maps ``[0, 1)`` onto multiples of
    ``1 / 2**bits`` and stays inside ``[0, 1)``.
    """
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits}")
    levels = 1 << bits
    return (round(coord * levels) % levels) / levels


def balanced_coordinate(
    existing: Sequence[float], rng: random.Random, candidates: int = 8
) -> float:
    """Draw one balanced random coordinate (paper's BalancedCoordinateGen).

    Samples *candidates* uniform coordinates and returns the one whose
    minimum circular distance to the *existing* coordinates is largest.
    With ``candidates=1`` this degenerates to plain uniform sampling.
    """
    if candidates < 1:
        raise ValueError(f"candidates must be >= 1, got {candidates}")
    if not existing:
        return rng.random()
    best_coord = 0.0
    best_gap = -1.0
    for _ in range(candidates):
        c = rng.random()
        gap = min(circular_distance(c, e) for e in existing)
        if gap > best_gap:
            best_gap = gap
            best_coord = c
    return best_coord


class CoordinateSystem:
    """Coordinates of every node in every virtual space of one topology.

    Provides the node → coordinate-vector directory used when a packet
    is injected (the source writes the destination's coordinates into
    the packet header; per-hop routing then needs only local state), and
    the per-space ring orders used for topology construction.

    Parameters
    ----------
    num_nodes:
        Number of memory nodes ``N``.
    num_spaces:
        Number of virtual spaces ``L`` (= ⌊p/2⌋ for p-port routers).
    seed:
        Seed for reproducible coordinate assignment.
    candidates:
        Best-of-k factor for balanced generation; 1 = plain uniform.
    coord_bits:
        If not ``None``, quantize all coordinates to this many bits
        (hardware-accurate mode; the paper uses 7-bit table entries).
    """

    def __init__(
        self,
        num_nodes: int,
        num_spaces: int,
        seed: int | None = None,
        candidates: int = 8,
        coord_bits: int | None = None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if num_spaces < 1:
            raise ValueError(f"num_spaces must be >= 1, got {num_spaces}")
        self.num_nodes = num_nodes
        self.num_spaces = num_spaces
        self.seed = seed
        self.candidates = candidates
        self.coord_bits = coord_bits
        # _coords[space][node] -> coordinate in [0, 1)
        self._coords: list[list[float]] = []
        from repro.utils.rng import derive_rng

        for space in range(num_spaces):
            rng = derive_rng(seed, "coordinates", space)
            coords: list[float] = []
            sorted_coords: list[float] = []
            for _node in range(num_nodes):
                c = self._balanced_draw(sorted_coords, rng, candidates)
                if coord_bits is not None:
                    c = quantize_coordinate(c, coord_bits)
                    c = self._dedupe_quantized(c, coords, coord_bits)
                coords.append(c)
                bisect.insort(sorted_coords, c)
            self._coords.append(coords)
        # Per-space ring order: node ids sorted by coordinate.
        self._rings: list[list[int]] = [
            sorted(range(num_nodes), key=lambda n, s=space: (self._coords[s][n], n))
            for space in range(num_spaces)
        ]
        self._positions: list[dict[int, int]] = [
            {node: idx for idx, node in enumerate(ring)} for ring in self._rings
        ]
        # Coordinates never move once drawn, so each node's vector is
        # built once here rather than on every table build.
        self._vectors: list[tuple[float, ...]] = list(zip(*self._coords))

    @staticmethod
    def _balanced_draw(
        sorted_coords: list[float], rng: random.Random, candidates: int
    ) -> float:
        """Best-of-k balanced draw using bisection on the sorted ring.

        Equivalent to :func:`balanced_coordinate` but O(log n) per
        candidate instead of O(n): the minimum circular distance to a
        sorted coordinate set is realized by one of the two coordinates
        adjacent to the insertion point (with wraparound).
        """
        draw = rng.random
        if not sorted_coords:
            return draw()
        n = len(sorted_coords)
        bisect_left = bisect.bisect_left
        best_coord = 0.0
        best_gap = -1.0
        # circular_distance inlined for both neighbours: this runs
        # N * L * candidates times per topology.
        for _ in range(candidates):
            c = draw()
            i = bisect_left(sorted_coords, c)
            left = abs(c - sorted_coords[(i - 1) % n])
            if left > 0.5:
                left = 1.0 - left
            right = abs(c - sorted_coords[i % n])
            if right > 0.5:
                right = 1.0 - right
            gap = right if right < left else left
            if gap > best_gap:
                best_gap = gap
                best_coord = c
        return best_coord

    @staticmethod
    def _dedupe_quantized(
        c: float, existing: list[float], bits: int
    ) -> float:
        """Nudge a quantized coordinate off already-used grid points.

        With more nodes than grid points duplicates are unavoidable; in
        that case the original coordinate is kept (ring order then falls
        back to node-id tie-breaking).
        """
        levels = 1 << bits
        if len(existing) >= levels:
            return c
        used = set(existing)
        step = 1.0 / levels
        probe = c
        for _ in range(levels):
            if probe not in used:
                return probe
            probe = (probe + step) % 1.0
        return c

    def coordinate(self, node: int, space: int) -> float:
        """Coordinate of *node* in *space*."""
        return self._coords[space][node]

    def vector(self, node: int) -> tuple[float, ...]:
        """Coordinate vector of *node* across all spaces."""
        return self._vectors[node]

    def ring(self, space: int) -> list[int]:
        """Node ids in ring (ascending-coordinate) order for *space*."""
        return list(self._rings[space])

    def ring_position(self, node: int, space: int) -> int:
        """Index of *node* on the ring of *space*."""
        return self._positions[space][node]

    def ring_neighbor(self, node: int, space: int, offset: int) -> int:
        """Node *offset* ring slots clockwise from *node* in *space*.

        Negative offsets walk counter-clockwise.
        """
        ring = self._rings[space]
        pos = self._positions[space][node]
        return ring[(pos + offset) % len(ring)]

    def successor(self, node: int, space: int) -> int:
        """Clockwise ring neighbor of *node* in *space*."""
        return self.ring_neighbor(node, space, 1)

    def predecessor(self, node: int, space: int) -> int:
        """Counter-clockwise ring neighbor of *node* in *space*."""
        return self.ring_neighbor(node, space, -1)

    def md(self, a: int, b: int) -> float:
        """Minimum circular distance between nodes *a* and *b*."""
        return min_circular_distance(self.vector(a), self.vector(b))

    def md_clockwise(self, a: int, b: int) -> float:
        """Minimum clockwise distance from node *a* to node *b*."""
        return min_clockwise_distance(self.vector(a), self.vector(b))

    def balance_score(self, space: int) -> float:
        """Ratio of smallest to mean ring gap in *space* (1.0 = perfectly even).

        Used by tests and the sensitivity bench to verify that balanced
        generation produces materially more even rings than plain
        uniform sampling.
        """
        ring = self._rings[space]
        coords = self._coords[space]
        n = len(ring)
        if n < 2:
            return 1.0
        gaps = []
        for i, node in enumerate(ring):
            nxt = ring[(i + 1) % n]
            gaps.append((coords[nxt] - coords[node]) % 1.0)
        mean_gap = 1.0 / n
        return min(gaps) / mean_gap
