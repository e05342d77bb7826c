"""Routing-policy adapters."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.routing import AdaptiveGreediestRouting, GreediestRouting
from repro.core.topology import StringFigureTopology
from repro.core.virtual_channels import select_virtual_channel
from repro.network.packet import Packet
from repro.network.policies import GreedyPolicy, MinimalPolicy

quiet = lambda u, v: 0.0
loaded = lambda u, v: 1.0


class TestGreedyPolicy:
    @pytest.fixture
    def topo(self):
        return StringFigureTopology(24, 4, seed=6)

    def test_forward_reaches_destination(self, topo):
        policy = GreedyPolicy(GreediestRouting(topo))
        packet = Packet(src=0, dst=13)
        current, first, hops = 0, True, 0
        while current != 13:
            current = policy.forward(current, packet, quiet, first)
            first = False
            hops += 1
            assert hops < 100
        assert current == 13

    def test_fallback_hops_tracked_on_packet(self, topo):
        policy = GreedyPolicy(GreediestRouting(topo))
        packet = Packet(src=0, dst=13)
        current, first = 0, True
        while current != 13:
            current = policy.forward(current, packet, quiet, first)
            first = False
        assert packet.fallback_hops == 0

    def test_vc_delegated(self, topo):
        routing = GreediestRouting(topo)
        policy = GreedyPolicy(routing)
        coords = topo.coords
        for a, b in ((1, 2), (2, 1), (3, 3)):
            assert policy.select_vc(a, b) == select_virtual_channel(
                coords.coordinate(a, 0), coords.coordinate(b, 0)
            )

    def test_adaptive_detection(self, topo):
        assert GreedyPolicy(AdaptiveGreediestRouting(topo))._adaptive
        assert not GreedyPolicy(GreediestRouting(topo))._adaptive


class TestMinimalPolicy:
    @pytest.fixture
    def graph(self):
        return nx.cycle_graph(10)

    def test_distance_matches_networkx(self, graph):
        policy = MinimalPolicy(graph, adaptive=False)
        for src in graph.nodes():
            lengths = nx.single_source_shortest_path_length(graph, src)
            for dst in graph.nodes():
                if src != dst:
                    assert policy.distance(src, dst) == lengths[dst]

    def test_candidates_make_progress(self, graph):
        policy = MinimalPolicy(graph, adaptive=False)
        for src in graph.nodes():
            for dst in graph.nodes():
                if src == dst:
                    continue
                for w in policy.candidates(src, dst):
                    assert policy.distance(w, dst) == policy.distance(src, dst) - 1

    def test_disconnected_rejected(self):
        g = nx.Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        with pytest.raises(ValueError):
            MinimalPolicy(g)

    def test_adaptive_diverts_under_load(self):
        g = nx.complete_graph(6)
        policy = MinimalPolicy(g, adaptive=True)
        packet = Packet(src=0, dst=5)
        # Direct neighbor is the only minimal candidate in K6 — no divert.
        assert policy.forward(0, packet, loaded, True) == 5

    def test_adaptive_on_cycle(self):
        # On an even cycle, opposite node has two minimal first hops.
        g = nx.cycle_graph(8)
        policy = MinimalPolicy(g, adaptive=True)
        packet = Packet(src=0, dst=4)
        primary = policy.forward(0, packet, quiet, True)
        congested = lambda u, v: 1.0 if v == primary else 0.0
        diverted = policy.forward(0, packet, congested, True)
        assert diverted != primary

    def test_route_length_equals_distance(self, graph):
        policy = MinimalPolicy(graph, adaptive=False)
        assert policy.route_length(0, 5) == policy.distance(0, 5)

    def test_vc_split(self, graph):
        policy = MinimalPolicy(graph)
        assert policy.select_vc(1, 5) == 0
        assert policy.select_vc(5, 1) == 1

