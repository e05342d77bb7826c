"""GreedyPolicy's exact decision cache."""

from __future__ import annotations

import pytest

from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import AdaptiveGreediestRouting, GreediestRouting
from repro.core.topology import StringFigureTopology
from repro.network.packet import Packet
from repro.network.policies import GreedyPolicy

quiet = lambda u, v: 0.0


def _walk(policy, src, dst):
    packet = Packet(src=src, dst=dst)
    path = [src]
    current, first = src, True
    while current != dst:
        current = policy.forward(current, packet, quiet, first)
        first = False
        path.append(current)
        assert len(path) < 300
    return path


@pytest.fixture
def topo():
    return StringFigureTopology(40, 4, seed=9)


class TestCacheCorrectness:
    def test_cached_equals_uncached(self, topo):
        cached = GreedyPolicy(GreediestRouting(topo), cache=True)
        plain = GreedyPolicy(GreediestRouting(topo), cache=False)
        for src in range(0, 40, 3):
            for dst in range(40):
                if src == dst:
                    continue
                assert _walk(cached, src, dst) == _walk(plain, src, dst)

    def test_cache_populated(self, topo):
        policy = GreedyPolicy(GreediestRouting(topo), cache=True)
        _walk(policy, 0, 27)
        assert policy._cache

    def test_repeat_walk_uses_cache(self, topo):
        policy = GreedyPolicy(GreediestRouting(topo), cache=True)
        first = _walk(policy, 0, 27)
        size = len(policy._cache)
        second = _walk(policy, 0, 27)
        assert second == first
        assert len(policy._cache) == size  # no growth on the second walk


class TestNoStateAliasing:
    """Cache hits must rebuild per-packet RouteState, never share one.

    The old cache stored the RouteState instance and assigned it to
    every hitting packet; RouteState is a mutable ``__slots__`` class,
    so one packet entering fallback (or consuming its commit) could
    rewrite the routing state of every other in-flight packet that hit
    the same entry.
    """

    def _committed_decision(self, policy, topo):
        """A (node, dst) whose greedy decision carries a two-hop commit."""
        for node in topo.active_nodes:
            for dst in topo.active_nodes:
                if node == dst:
                    continue
                probe = Packet(src=node, dst=dst)
                policy.forward(node, probe, quiet, False)
                if (
                    probe.route_state is not None
                    and probe.route_state.commit is not None
                ):
                    return node, dst
        pytest.fail("no two-hop committed decision found on this topology")

    def test_cache_hits_get_distinct_states(self, topo):
        policy = GreedyPolicy(GreediestRouting(topo), cache=True)
        node, dst = self._committed_decision(policy, topo)
        p1, p2 = Packet(src=node, dst=dst), Packet(src=node, dst=dst)
        n1 = policy.forward(node, p1, quiet, False)  # cache hit
        n2 = policy.forward(node, p2, quiet, False)  # same entry
        assert n1 == n2
        assert p1.route_state is not None and p2.route_state is not None
        assert p1.route_state is not p2.route_state
        assert p1.route_state.commit == p2.route_state.commit

    def test_one_packet_entering_fallback_leaves_the_other_alone(self, topo):
        policy = GreedyPolicy(GreediestRouting(topo), cache=True)
        node, dst = self._committed_decision(policy, topo)
        p1, p2 = Packet(src=node, dst=dst), Packet(src=node, dst=dst)
        policy.forward(node, p1, quiet, False)
        policy.forward(node, p2, quiet, False)
        # p1 hits a degraded region in flight and drops into ring
        # fallback; with a shared state this would instantly corrupt
        # p2's pending commit as well.
        p1.route_state.commit = None
        p1.route_state.fallback_md = 0.25
        assert p2.route_state.commit is not None
        assert not p2.route_state.in_fallback

    def test_cache_stores_primitives_not_states(self, topo):
        from repro.core.routing import RouteState

        policy = GreedyPolicy(GreediestRouting(topo), cache=True)
        _walk(policy, 0, 27)
        for value in policy._cache.values():
            nxt, commit = value
            assert isinstance(nxt, int)
            assert commit is None or isinstance(commit, int)
            assert not isinstance(value, RouteState)
            assert not any(isinstance(part, RouteState) for part in value)


class TestCacheInvalidation:
    def test_reconfigure_clears_cache(self, topo):
        routing = AdaptiveGreediestRouting(topo)
        policy = GreedyPolicy(routing, cache=True)
        _walk(policy, 0, 27)
        assert len(policy._cache) > 1
        policy.on_reconfigure()
        # The refresh bumps the routing generation: the next forward
        # drops every entry filled against the old tables.
        policy.forward(0, Packet(src=0, dst=27), quiet, False)
        assert set(policy._cache) <= {0 * topo.num_nodes + 27}

    def test_routes_correct_after_reconfig(self, topo):
        routing = AdaptiveGreediestRouting(topo)
        policy = GreedyPolicy(routing, cache=True)
        manager = ReconfigurationManager(topo, routing)
        # warm the cache on the full network
        for dst in range(1, 40, 5):
            _walk(policy, 0, dst)
        victim = manager.gate_candidates(1)[0]
        manager.power_gate(victim)
        policy.on_reconfigure()
        active = [v for v in topo.active_nodes if v != 0]
        for dst in active[::4]:
            path = _walk(policy, 0, dst)
            assert victim not in path

    def test_offline_reconfig_invalidates_without_notification(self, topo):
        """Offline reconfiguration never calls ``on_reconfigure`` (the
        manager does not know the policy exists) — the routing
        generation counter must invalidate the caches on its own,
        otherwise stale entries route packets into the gated region."""
        routing = AdaptiveGreediestRouting(topo)
        policy = GreedyPolicy(routing, cache=True)
        manager = ReconfigurationManager(topo, routing)
        for dst in range(1, 40, 3):
            _walk(policy, 0, dst)
        assert policy._cache
        victim = manager.gate_candidates(1)[0]
        manager.power_gate(victim)  # note: no policy.on_reconfigure()
        active = [v for v in topo.active_nodes if v != 0]
        for dst in active[::4]:
            path = _walk(policy, 0, dst)
            assert victim not in path

    def test_adaptive_candidate_cache_cleared_on_reconfigure(self, topo):
        routing = AdaptiveGreediestRouting(topo)
        policy = GreedyPolicy(routing, cache=True)
        # A loaded primary port forces the candidate set to be built.
        busy = lambda u, v: 1.0
        packet = Packet(src=0, dst=27)
        policy.forward(0, packet, busy, True)
        assert policy._cand_cache
        policy.on_reconfigure()
        # Under no load the next forward never ranks candidates, so the
        # cache it leaves behind holds nothing from before the refresh.
        policy.forward(0, Packet(src=0, dst=27), quiet, True)
        assert not policy._cand_cache
