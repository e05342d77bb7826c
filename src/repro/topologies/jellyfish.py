"""Jellyfish baseline: uniform-random regular graphs (NSDI 2012).

Jellyfish samples a topology uniformly from the space of r-regular
graphs and achieves near-optimal throughput and path lengths — the
paper uses it in Figure 5 as the sufficiently-uniform-random-graph
(SURG) gold standard for shortest path length.  Its drawback in a
memory network is routing state: it needs k-shortest-path forwarding
tables whose size grows superlinearly with the network, which is why
String Figure exists.  We model its routing as minimal-adaptive over
the random graph (the latency-relevant behaviour of k-shortest-path
ECMP), and additionally expose k-shortest-path table sizes for the
routing-state comparison.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.topologies.base import BaseTopology

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["JellyfishTopology"]


class JellyfishTopology(BaseTopology):
    """Random r-regular graph with minimal (k-shortest-path-like) routing."""

    name = "Jellyfish"
    reconfigurable = False
    radix_scales_with_n = False

    def __init__(self, num_nodes: int, degree: int = 4, seed: int | None = 0) -> None:
        super().__init__(num_nodes)
        if degree < 2:
            raise ValueError(f"degree must be >= 2, got {degree}")
        if degree >= num_nodes:
            raise ValueError("degree must be below num_nodes")
        if (num_nodes * degree) % 2:
            raise ValueError(
                f"no {degree}-regular graph exists on {num_nodes} nodes "
                "(odd degree sum)"
            )
        self.degree = degree
        self.seed = seed

    def build_graph(self) -> nx.Graph:
        import networkx as nx

        # Retry with shifted seeds until the sampled regular graph is
        # connected (disconnection is rare for r >= 3 but possible).
        for attempt in range(64):
            seed = None if self.seed is None else self.seed + attempt
            g = nx.random_regular_graph(self.degree, self.num_nodes, seed=seed)
            if nx.is_connected(g):
                return g
        raise RuntimeError(
            f"failed to sample a connected {self.degree}-regular graph "
            f"on {self.num_nodes} nodes"
        )

    def k_shortest_path_state(self, k: int = 4, sample: int = 32) -> float:
        """Estimated per-router k-shortest-path entries (routing state).

        Jellyfish forwarding stores, per destination, the next hops of
        k shortest paths; state per router is ``O(k N)`` entries and
        the total grows superlinearly.  Returns the mean number of
        table entries per router, estimated over *sample* destinations.
        """
        import itertools

        import networkx as nx

        from repro.utils.rng import derive_rng

        g = self.graph()
        rng = derive_rng(self.seed, "ksp-sample")
        nodes = list(g.nodes())
        dsts = rng.sample(nodes, min(sample, len(nodes)))
        total_entries = 0
        for dst in dsts:
            for src in nodes:
                if src == dst:
                    continue
                paths = itertools.islice(
                    nx.shortest_simple_paths(g, src, dst), k
                )
                next_hops = {p[1] for p in paths}
                total_entries += len(next_hops)
        per_router_per_dst = total_entries / (len(dsts) * (len(nodes) - 1))
        return per_router_per_dst * (len(nodes) - 1)
