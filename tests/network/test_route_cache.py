"""GreedyPolicy against the scalar reference; the decision columns are
its only memo.

A plain hop reads the destination's decision column
(``GreediestRouting.kernel_next_hop``); every other hop takes the
scalar ``next_hop``.  The policy must walk every pair exactly as the
uncached reference built from ``adaptive_next_hop`` / ``next_hop``
does — same path, same fallback count, same final routing state —
under load, after reconfiguration and above the kernel's size gate.
``HYPOTHESIS_PROFILE=ci`` runs more, derandomized examples.
"""

from __future__ import annotations

import os
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import AdaptiveGreediestRouting, GreediestRouting, RouteState
from repro.core.topology import LinkDirection, StringFigureTopology
from repro.network.packet import Packet
from repro.network.policies import GreedyPolicy

_CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"

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


def _plain(state):
    return state is None or (state.commit is None and state.fallback_md is None)


def _outcome(step, src, dst, limit):
    """Walk ``src -> dst`` through ``step(current, first_hop)``; returns
    the path (cut at *limit* hops) and the error that stopped the walk,
    if any."""
    path = [src]
    current = src
    try:
        while current != dst and len(path) <= limit:
            current = step(current, len(path) == 1)
            path.append(current)
    except RuntimeError as exc:
        return path, str(exc)
    return path, None


def _policy_walk(policy, src, dst, load, stateful_first, limit):
    """One policy walk.  With *stateful_first*, a hop whose packet
    carries commit/fallback state is presented as a first hop, as if
    the packet had re-entered the network without its state being
    reset: the policy must still match the reference, so its scalar
    tail needs no adaptive variant."""
    packet = Packet(src=src, dst=dst)

    def step(current, first):
        first = first or (stateful_first and not _plain(packet.route_state))
        return policy.forward(current, packet, load, first)

    path, error = _outcome(step, src, dst, limit)
    state = packet.route_state or RouteState()
    return path, error, packet.fallback_hops, (state.commit, state.fallback_md)


def _reference_walk(routing, src, dst, load, stateful_first, limit):
    state = None
    fallback_hops = 0

    def step(current, first):
        nonlocal state, fallback_hops
        first = first or (stateful_first and not _plain(state))
        if isinstance(routing, AdaptiveGreediestRouting):
            nxt, state = routing.adaptive_next_hop(current, dst, load, first, None, state)
        else:
            nxt, state = routing.next_hop(current, dst, None, state)
        fallback_hops += state.in_fallback
        return nxt

    path, error = _outcome(step, src, dst, limit)
    state = state or RouteState()
    return path, error, fallback_hops, (state.commit, state.fallback_md)


@pytest.fixture
def topo():
    return StringFigureTopology(40, 4, seed=9)


class TestCacheCorrectness:
    @settings(max_examples=40 if _CI else 8, deadline=None, derandomize=_CI)
    @given(
        nodes=st.integers(16, 160),
        ports=st.sampled_from([4, 6, 8]),
        seed=st.integers(0, 2**16),
        uni=st.booleans(),
        use_two_hop=st.booleans(),
        adaptive=st.booleans(),
        probe=st.randoms(use_true_random=False),
    )
    def test_cached_equals_uncached(self, nodes, ports, seed, uni, use_two_hop, adaptive, probe):
        """The column-reading policy equals the uncached scalar
        reference, pair by pair."""
        direction = LinkDirection.UNI if uni else LinkDirection.BI
        topo = StringFigureTopology(nodes, ports, seed=seed, direction=direction)
        kind = AdaptiveGreediestRouting if adaptive else GreediestRouting
        routing = kind(topo, use_two_hop=use_two_hop)
        policy = GreedyPolicy(routing)
        limit = 4 * nodes

        def load(u, v):
            # Every router's lowest usable port is past the 0.5
            # congestion threshold, the rest below it: the quick reject
            # never skips, and a divert happens whenever that port is
            # the greedy one.
            if v == min(routing.usable_neighbors(u)):
                return 0.9
            return ((u * 31 + v * 17) % 5) / 10

        def check():
            active = topo.active_nodes
            for src in probe.sample(active, 3):
                for dst in active:
                    if src == dst:
                        continue
                    for stateful_first in (False, True):
                        args = (src, dst, load, stateful_first, limit)
                        assert _policy_walk(policy, *args) == _reference_walk(routing, *args)

        # Under load: the adaptive divert and its candidate memo run.
        check()
        if adaptive:
            assert policy._cand_cache
        # After a gate the policy is not told about (offline
        # reconfiguration): degraded routes take the fallback walk.
        manager = ReconfigurationManager(topo, routing)
        candidates = manager.gate_candidates(4)
        if candidates:
            manager.power_gate(*probe.sample(candidates, probe.randint(1, len(candidates))))
        check()
        # Above the kernel's size gate every hop takes the scalar path.
        routing.kernel_max_nodes = nodes - 1
        routing.refresh_views()
        check()
        assert routing._columns == {}

    def test_cache_populated(self, topo):
        routing = GreediestRouting(topo)
        policy = GreedyPolicy(routing)
        _walk(policy, 0, 27)
        assert 27 in routing._columns
        # The columns are the only decision store: the policy keeps
        # just the adaptive candidate memo and its load probes.
        stores = {name for name, value in vars(policy).items() if isinstance(value, dict)}
        assert stores == {"_cand_cache", "_probes"}

    def test_repeat_walk_uses_cache(self, topo, monkeypatch):
        routing = GreediestRouting(topo)
        policy = GreedyPolicy(routing)
        first = _walk(policy, 0, 27)
        columns = dict(routing._columns)
        calls = []
        greedy_choice = routing._greedy_choice
        column = routing._kernel_state.column

        def count(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(routing, "_greedy_choice", count("greedy", greedy_choice))
        monkeypatch.setattr(routing._kernel_state, "column", count("column", column))
        second = _walk(policy, 0, 27)
        assert second == first
        assert calls == []
        assert routing._columns.keys() == columns.keys()
        assert all(routing._columns[d] is col for d, col in columns.items())


class TestNoStateAliasing:
    """Column hits must build per-packet RouteState, never share one.

    RouteState is a mutable ``__slots__`` class: a store that handed
    one instance to every hitting packet would let one packet entering
    fallback (or consuming its commit) rewrite the routing state of
    every other in-flight packet that hit the same entry.
    """

    def _committed_decision(self, policy, topo):
        """A (node, dst) whose greedy decision carries a two-hop commit."""
        for node in topo.active_nodes:
            for dst in topo.active_nodes:
                if node == dst:
                    continue
                probe = Packet(src=node, dst=dst)
                policy.forward(node, probe, quiet, False)
                if probe.route_state is not None and probe.route_state.commit is not None:
                    return node, dst
        pytest.fail("no two-hop committed decision found on this topology")

    def test_cache_hits_get_distinct_states(self, topo):
        policy = GreedyPolicy(GreediestRouting(topo))
        node, dst = self._committed_decision(policy, topo)
        p1, p2 = Packet(src=node, dst=dst), Packet(src=node, dst=dst)
        n1 = policy.forward(node, p1, quiet, False)  # column hit
        n2 = policy.forward(node, p2, quiet, False)  # same entry
        assert n1 == n2
        assert p1.route_state is not None and p2.route_state is not None
        assert p1.route_state is not p2.route_state
        assert p1.route_state.commit == p2.route_state.commit

    def test_one_packet_entering_fallback_leaves_the_other_alone(self, topo):
        policy = GreedyPolicy(GreediestRouting(topo))
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
        routing = GreediestRouting(topo)
        policy = GreedyPolicy(routing)
        _walk(policy, 0, 27)
        assert routing._columns
        for column in routing._columns.values():
            assert isinstance(column, array)
            assert column.typecode == "i"


class TestCacheInvalidation:
    def test_reconfigure_clears_cache(self, topo):
        routing = AdaptiveGreediestRouting(topo)
        policy = GreedyPolicy(routing)
        for dst in (27, 13, 5):
            _walk(policy, 0, dst)
        assert len(routing._columns) > 1
        policy.on_reconfigure()
        # The refresh bumps the routing generation: the next forward
        # drops every column filled against the old tables.
        policy.forward(0, Packet(src=0, dst=27), quiet, False)
        assert set(routing._columns) <= {27}

    def test_routes_correct_after_reconfig(self, topo):
        routing = AdaptiveGreediestRouting(topo)
        policy = GreedyPolicy(routing)
        manager = ReconfigurationManager(topo, routing)
        # warm the columns on the full network
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
        generation counter must invalidate the columns on its own,
        otherwise stale entries route packets into the gated region."""
        routing = AdaptiveGreediestRouting(topo)
        policy = GreedyPolicy(routing)
        manager = ReconfigurationManager(topo, routing)
        for dst in range(1, 40, 3):
            _walk(policy, 0, dst)
        assert routing._columns
        victim = manager.gate_candidates(1)[0]
        manager.power_gate(victim)  # note: no policy.on_reconfigure()
        active = [v for v in topo.active_nodes if v != 0]
        for dst in active[::4]:
            path = _walk(policy, 0, dst)
            assert victim not in path

    def test_adaptive_candidate_cache_cleared_on_reconfigure(self, topo):
        routing = AdaptiveGreediestRouting(topo)
        policy = GreedyPolicy(routing)
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
