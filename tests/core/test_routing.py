"""Greediest routing: delivery, progress, loop freedom, adaptivity."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing import AdaptiveGreediestRouting, GreediestRouting, RouteState
from repro.core.topology import StringFigureTopology
from repro.network.policies import GreedyPolicy


class TestDelivery:
    def test_all_pairs_small(self, small_routing):
        n = small_routing.topology.num_nodes
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                result = small_routing.route(a, b)
                assert result.path[0] == a
                assert result.path[-1] == b

    def test_all_pairs_medium_no_fallback(self, medium_routing):
        n = medium_routing.topology.num_nodes
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                result = medium_routing.route(a, b)
                assert result.path[-1] == b
                assert result.fallback_hops == 0

    def test_path_edges_exist(self, medium_routing):
        topo = medium_routing.topology
        result = medium_routing.route(0, topo.num_nodes - 1)
        for u, v in zip(result.path, result.path[1:]):
            assert v in topo.neighbors(u)

    def test_inactive_endpoint_rejected(self, medium_routing):
        medium_routing.topology.set_node_active(3, False)
        with pytest.raises(ValueError):
            medium_routing.route(3, 10)
        with pytest.raises(ValueError):
            medium_routing.route(10, 3)
        medium_routing.topology.set_node_active(3, True)

    def test_direct_neighbor_is_one_hop(self, medium_routing):
        topo = medium_routing.topology
        for v in topo.neighbors(0):
            assert medium_routing.route(0, v).hops == 1

    def test_loop_free_paths(self, medium_routing):
        """No node is ever visited twice on an intact network."""
        n = medium_routing.topology.num_nodes
        for a in range(0, n, 7):
            for b in range(n):
                if a == b:
                    continue
                path = medium_routing.route(a, b).path
                assert len(path) == len(set(path))


class TestProgress:
    def test_md_decreases_at_decision_points(self, medium_routing):
        """Strict MD progress across decision points (Lemma 2).

        A decision point is a node reached with no pending two-hop
        commit; the MD to the destination must strictly decrease from
        one decision point to the next, which is what makes greedy
        routes loop-free (Proposition 3).
        """
        r = medium_routing
        n = r.topology.num_nodes
        for a in range(0, n, 5):
            for b in range(0, n, 3):
                if a == b:
                    continue
                current, state = a, None
                decision_mds = [r.md(a, b)]
                hops = 0
                while current != b:
                    current, state = r.next_hop(current, b, state=state)
                    hops += 1
                    assert hops < 4 * n
                    if state.commit is None and current != b:
                        md = r.md(current, b)
                        assert md < decision_mds[-1]
                        decision_mds.append(md)

    def test_candidate_set_strictly_progressing(self, medium_routing):
        r = medium_routing
        for src in range(0, 61, 9):
            for dst in range(61):
                if src == dst:
                    continue
                my_md = r.md(src, dst)
                for score, via in r.candidate_set(src, dst):
                    assert score < my_md

    def test_candidates_are_neighbors(self, medium_routing):
        r = medium_routing
        topo = r.topology
        for dst in range(5, 61, 11):
            for _score, via in r.candidate_set(0, dst):
                assert via in topo.neighbors(0)


class TestTwoHopWindow:
    def test_two_hop_shortens_paths(self):
        """The paper's sensitivity result: 1+2-hop beats 1-hop-only."""
        topo = StringFigureTopology(128, 4, seed=5)
        two = GreediestRouting(topo, use_two_hop=True)
        one = GreediestRouting(topo, use_two_hop=False)
        total_two = total_one = 0
        for a in range(0, 128, 11):
            for b in range(0, 128, 7):
                if a == b:
                    continue
                total_two += two.route(a, b).hops
                total_one += one.route(a, b).hops
        assert total_two < total_one

    def test_commit_state_cleared_at_delivery(self, medium_routing):
        result = medium_routing.route(0, 42)
        assert result.path[-1] == 42  # route() only returns on delivery


class TestRouteState:
    """``RouteState`` is the scalar reference's state; a packet carries
    the same two fields as plain values (``commit == -1``: none)."""

    def test_packet_fields_mirror_route_state(self, medium_routing):
        from repro.network.packet import Packet

        policy = GreedyPolicy(medium_routing)
        n = medium_routing.topology.num_nodes
        for dst in range(1, n, 7):
            packet = Packet(src=0, dst=dst)
            assert (packet.commit, packet.fallback_md) == (-1, None)
            current, state = 0, None
            while current != dst:
                nxt = policy.forward(current, packet, lambda u, v: 0.0, False)
                current, state = medium_routing.next_hop(current, dst, state=state)
                assert nxt == current
                assert packet.commit == (-1 if state.commit is None else state.commit)
                assert packet.fallback_md == state.fallback_md
            packet.commit, packet.fallback_md = 5, 0.25
            packet.reset_route()
            assert (packet.commit, packet.fallback_md) == (-1, None)

    def test_default_state(self):
        state = RouteState()
        assert state.commit is None
        assert not state.in_fallback

    def test_repr(self):
        assert "commit" in repr(RouteState(commit=3))

    def test_next_hop_returns_state(self, medium_routing):
        nxt, state = medium_routing.next_hop(0, 42)
        assert nxt in medium_routing.topology.neighbors(0)
        assert isinstance(state, RouteState)


class TestMaxHops:
    def test_max_hops_guard(self, medium_routing):
        with pytest.raises(RuntimeError):
            medium_routing.route(0, 42, max_hops=0)


class TestAdaptive:
    def test_threshold_validation(self, medium_topology):
        with pytest.raises(ValueError):
            AdaptiveGreediestRouting(medium_topology, congestion_threshold=0.0)
        with pytest.raises(ValueError):
            AdaptiveGreediestRouting(medium_topology, congestion_threshold=1.5)

    def test_uncongested_matches_greediest(self, adaptive_routing):
        """With empty queues the adaptive choice is the greediest one."""
        quiet = lambda u, v: 0.0
        for src in range(0, 61, 13):
            for dst in range(61):
                if src == dst:
                    continue
                greedy, _ = adaptive_routing.next_hop(src, dst)
                adaptive, _ = adaptive_routing.adaptive_next_hop(
                    src, dst, quiet, first_hop=True
                )
                assert adaptive == greedy

    def test_congestion_diverts_first_hop(self, adaptive_routing):
        """A saturated greediest port diverts to another candidate."""
        r = adaptive_routing
        diverted_any = False
        for src in range(61):
            for dst in range(61):
                if src == dst:
                    continue
                candidates = r.candidate_set(src, dst)
                if len(candidates) < 2:
                    continue
                best = candidates[0][1]
                load = lambda u, v, best=best: 1.0 if v == best else 0.0
                choice, _ = r.adaptive_next_hop(src, dst, load, first_hop=True)
                assert choice != best
                # The diverted choice still satisfies strict progress.
                assert choice in [w for _s, w in candidates]
                diverted_any = True
                break
            if diverted_any:
                break
        assert diverted_any

    def test_non_first_hop_never_diverts(self, adaptive_routing):
        r = adaptive_routing
        for src in range(0, 61, 17):
            for dst in range(61):
                if src == dst:
                    continue
                best = r.candidate_set(src, dst)
                if not best:
                    continue
                loaded = lambda u, v: 1.0
                choice, _ = r.adaptive_next_hop(src, dst, loaded, first_hop=False)
                greedy, _ = r.next_hop(src, dst)
                assert choice == greedy

    def test_adaptive_still_delivers(self, adaptive_routing):
        """Adaptive first hops preserve delivery (simulated walk)."""
        r = adaptive_routing
        loaded = lambda u, v: 1.0  # always divert if possible
        for a in range(0, 61, 7):
            for b in range(0, 61, 5):
                if a == b:
                    continue
                current, state, hops = a, None, 0
                first = True
                while current != b:
                    current, state = r.adaptive_next_hop(
                        current, b, loaded, first_hop=first, state=state
                    )
                    first = False
                    hops += 1
                    assert hops < 200


class TestUnidirectionalRouting:
    def test_uni_all_pairs_deliver(self):
        topo = StringFigureTopology(40, 4, seed=8, direction="uni")
        r = GreediestRouting(topo)
        for a in range(40):
            for b in range(40):
                if a == b:
                    continue
                assert r.route(a, b).path[-1] == b

    def test_uni_follows_out_edges(self):
        topo = StringFigureTopology(40, 4, seed=8, direction="uni")
        r = GreediestRouting(topo)
        path = r.route(0, 25).path
        for u, v in zip(path, path[1:]):
            assert v in topo.neighbors(u)


class TestQuantizedRouting:
    def test_seven_bit_coordinates_still_deliver(self):
        """Hardware-accurate 7-bit tables must still route correctly."""
        topo = StringFigureTopology(40, 4, seed=8, coord_bits=7)
        r = GreediestRouting(topo)
        delivered = 0
        for a in range(40):
            for b in range(40):
                if a == b:
                    continue
                result = r.route(a, b, max_hops=400)
                assert result.path[-1] == b
                delivered += 1
        assert delivered == 40 * 39


class TestVcSelection:
    """The greedy policy's VC rule, read from space-0 coordinates."""

    def test_vc_in_range(self, medium_routing):
        policy = GreedyPolicy(medium_routing)
        for a in range(0, 61, 5):
            for b in range(61):
                if a == b:
                    continue
                assert policy.select_vc(a, b) in (0, 1)

    def test_vc_opposite_directions_differ(self, medium_routing):
        policy = GreedyPolicy(medium_routing)
        coords = medium_routing.topology.coords
        a, b = 0, 1
        if coords.coordinate(a, 0) != coords.coordinate(b, 0):
            assert policy.select_vc(a, b) != policy.select_vc(b, a)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=60),
    p=st.sampled_from([4, 6, 8]),
    seed=st.integers(min_value=0, max_value=5000),
)
def test_property_full_delivery_loop_free(n, p, seed):
    """Property: greediest routing delivers loop-free on any topology."""
    topo = StringFigureTopology(n, p, seed=seed)
    r = GreediestRouting(topo)
    rng_pairs = [(a, b) for a in range(0, n, 3) for b in range(0, n, 2) if a != b]
    for a, b in rng_pairs:
        result = r.route(a, b)
        assert result.path[-1] == b
        assert result.fallback_hops == 0
        assert len(result.path) == len(set(result.path))
