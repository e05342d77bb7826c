"""GreedyPolicy against the scalar reference; the decision columns are
its only memo.

A plain hop reads the destination's decision column
(``GreediestRouting.column``); every other hop takes the scalar
``next_hop``.  The policy must walk every pair exactly as the
uncached reference built from the oracle ``adaptive_next_hop`` /
``next_hop`` does — same path, same fallback count, same final routing
state — under load, after reconfiguration and above the kernel's size
gate.  Load is set on the ports of the simulator the policy is
attached to, and the reference reads the same ports.
``HYPOTHESIS_PROFILE=ci`` runs more, derandomized examples.
"""

from __future__ import annotations

import os
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import AdaptiveGreediestRouting, GreediestRouting
from repro.core.topology import LinkDirection, StringFigureTopology
from repro.network.packet import Packet
from repro.network.policies import GreedyPolicy
from repro.network.simulator import NetworkSimulator
from tests.core.routing_oracle import adaptive_next_hop

_CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"


def _port(sim, u, v):
    port = sim._ports.get(u * sim._n + v)
    return sim._port(u, v) if port is None else port


def _port_load(sim):
    """The reference's probe: the occupancy fraction of ``u -> v`` on
    *sim*'s ports, as a classless packet sees it."""

    def load(u, v):
        port = sim._ports.get(u * sim._n + v)
        return 0.0 if port is None else min(1.0, port.count / port.cap)

    return load


def _walk(policy, src, dst):
    packet = Packet(src=src, dst=dst)
    path = [src]
    current, first = src, True
    while current != dst:
        current = policy.forward(current, packet, first)
        first = False
        path.append(current)
        assert len(path) < 300
    return path


def _packet_plain(packet):
    return packet.commit < 0 and packet.fallback_md is None


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


def _policy_walk(policy, src, dst, stateful_first, limit):
    """One policy walk.  With *stateful_first*, a hop whose packet
    carries commit/fallback state is presented as a first hop, as if
    the packet had re-entered the network without its state being
    reset: the policy must still match the reference, so its scalar
    tail needs no adaptive variant."""
    packet = Packet(src=src, dst=dst)

    def step(current, first):
        first = first or (stateful_first and not _packet_plain(packet))
        return policy.forward(current, packet, first)

    path, error = _outcome(step, src, dst, limit)
    commit = None if packet.commit < 0 else packet.commit
    return path, error, packet.fallback_hops, (commit, packet.fallback_md)


def _reference_walk(routing, src, dst, load, stateful_first, limit):
    commit, fallback_md = -1, None
    fallback_hops = 0

    def step(current, first):
        nonlocal commit, fallback_md, fallback_hops
        first = first or (stateful_first and (commit >= 0 or fallback_md is not None))
        if isinstance(routing, AdaptiveGreediestRouting):
            nxt, commit, fallback_md = adaptive_next_hop(
                routing, current, dst, load, first, commit, fallback_md
            )
        else:
            nxt, commit, fallback_md = routing.next_hop(current, dst, commit, fallback_md)
        fallback_hops += fallback_md is not None
        return nxt

    path, error = _outcome(step, src, dst, limit)
    return path, error, fallback_hops, (None if commit < 0 else commit, fallback_md)


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
        sim = NetworkSimulator(topo, policy)
        load = _port_load(sim)
        limit = 4 * nodes

        def check():
            # Every router's lowest usable port is past the 0.5
            # congestion threshold, the rest below it: the quick reject
            # never skips, and a divert happens whenever that port is
            # the greedy one.
            active = topo.active_nodes
            for u in active:
                usable = routing.usable_neighbors(u)
                for v in usable:
                    port = _port(sim, u, v)
                    share = 0.9 if v == min(usable) else ((u * 31 + v * 17) % 5) / 10
                    port.count = round(share * port.cap)
            for src in probe.sample(active, 3):
                for dst in active:
                    if src == dst:
                        continue
                    for stateful_first in (False, True):
                        want = _reference_walk(routing, src, dst, load, stateful_first, limit)
                        assert _policy_walk(policy, src, dst, stateful_first, limit) == want

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
        assert routing.columns == {}

    def test_cache_populated(self, topo):
        routing = GreediestRouting(topo)
        policy = GreedyPolicy(routing)
        _walk(policy, 0, 27)
        assert 27 in routing.columns
        # The columns are the only decision store: the policy keeps
        # just the adaptive candidate memo and its load probes, beside
        # the routing's own dicts it hands to the simulator.
        stores = {name for name, value in vars(policy).items() if isinstance(value, dict)}
        assert stores == {"_cand_cache", "_probes", "columns", "nbr_index"}
        assert policy.columns is routing.columns
        assert policy.nbr_index is routing.nbr_index

    def test_repeat_walk_uses_cache(self, topo, monkeypatch):
        routing = GreediestRouting(topo)
        policy = GreedyPolicy(routing)
        first = _walk(policy, 0, 27)
        columns = dict(routing.columns)
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
        assert routing.columns.keys() == columns.keys()
        assert all(routing.columns[d] is col for d, col in columns.items())


class TestNoStateAliasing:
    """Column hits must give each packet routing state of its own.

    A packet carries its routing state as plain fields (``commit``,
    ``fallback_md``): two packets that hit one committed column entry
    get equal commits that are theirs alone, one packet entering
    fallback leaves every other packet's state as it was, and the
    live-reconfiguration probe leaves every routing field exactly as
    it found it.
    """

    def _committed_decision(self, policy, topo):
        """A (node, dst) whose greedy decision carries a two-hop commit."""
        for node in topo.active_nodes:
            for dst in topo.active_nodes:
                if node == dst:
                    continue
                probe = Packet(src=node, dst=dst)
                policy.forward(node, probe, False)
                if probe.commit >= 0:
                    return node, dst
        pytest.fail("no two-hop committed decision found on this topology")

    def test_cache_hits_get_distinct_states(self, topo):
        policy = GreedyPolicy(GreediestRouting(topo))
        node, dst = self._committed_decision(policy, topo)
        p1, p2 = Packet(src=node, dst=dst), Packet(src=node, dst=dst)
        n1 = policy.forward(node, p1, False)  # column hit
        n2 = policy.forward(node, p2, False)  # same entry
        assert n1 == n2
        assert p1.commit == p2.commit >= 0
        assert p1.fallback_md is None and p2.fallback_md is None

    def test_one_packet_entering_fallback_leaves_the_other_alone(self, topo):
        policy = GreedyPolicy(GreediestRouting(topo))
        node, dst = self._committed_decision(policy, topo)
        p1, p2 = Packet(src=node, dst=dst), Packet(src=node, dst=dst)
        policy.forward(node, p1, False)
        policy.forward(node, p2, False)
        # p1 hits a degraded region in flight and drops into ring
        # fallback; p2's pending commit and greedy mode are untouched.
        commit = p2.commit
        p1.commit, p1.fallback_md = -1, 0.25
        assert p2.commit == commit >= 0
        assert p2.fallback_md is None

    @pytest.mark.parametrize("fails", [False, True])
    def test_forward_probe_restores_route_fields(self, topo, fails):
        """``LiveReconfigurator._forward_would_fail`` runs a real
        forward (which consumes commits and counts fallback hops) and
        must leave ``commit``, ``fallback_md`` and ``fallback_hops`` as
        it found them, whether the probe succeeds or raises."""
        from repro.network.elastic import LiveReconfigurator
        from repro.network.simulator import NetworkSimulator

        routing = GreediestRouting(topo)
        policy = GreedyPolicy(routing)
        manager = ReconfigurationManager(topo, routing)
        live = LiveReconfigurator(NetworkSimulator(topo, policy), manager, policy)
        node, dst = self._committed_decision(policy, topo)
        packet = Packet(src=node, dst=dst)
        at = policy.forward(node, packet, False)  # the via
        packet.fallback_hops = 3
        if fails:
            # Forwarding from a gated router raises inside forward.
            at = manager.gate_candidates(1)[0]
            manager.power_gate(at)
        for commit, fallback_md in ((packet.commit, None), (-1, 0.25)):
            packet.commit, packet.fallback_md = commit, fallback_md
            assert live._forward_would_fail(at, packet, False) is fails
            assert packet.commit == commit
            assert packet.fallback_md == fallback_md
            assert packet.fallback_hops == 3

    def test_cache_stores_primitives_not_states(self, topo):
        routing = GreediestRouting(topo)
        policy = GreedyPolicy(routing)
        _walk(policy, 0, 27)
        assert routing.columns
        for column in routing.columns.values():
            assert isinstance(column, array)
            assert column.typecode == "i"


class TestCacheInvalidation:
    def test_reconfigure_clears_cache(self, topo):
        routing = AdaptiveGreediestRouting(topo)
        policy = GreedyPolicy(routing)
        NetworkSimulator(topo, policy)
        for dst in (27, 13, 5):
            _walk(policy, 0, dst)
        assert len(routing.columns) > 1
        policy.on_reconfigure()
        # The refresh bumps the routing generation: the next forward
        # drops every column filled against the old tables.
        policy.forward(0, Packet(src=0, dst=27), False)
        assert set(routing.columns) <= {27}

    def test_routes_correct_after_reconfig(self, topo):
        routing = AdaptiveGreediestRouting(topo)
        policy = GreedyPolicy(routing)
        NetworkSimulator(topo, policy)
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
        NetworkSimulator(topo, policy)
        manager = ReconfigurationManager(topo, routing)
        for dst in range(1, 40, 3):
            _walk(policy, 0, dst)
        assert routing.columns
        victim = manager.gate_candidates(1)[0]
        manager.power_gate(victim)  # note: no policy.on_reconfigure()
        active = [v for v in topo.active_nodes if v != 0]
        for dst in active[::4]:
            path = _walk(policy, 0, dst)
            assert victim not in path

    def test_adaptive_candidate_cache_cleared_on_reconfigure(self, topo):
        routing = AdaptiveGreediestRouting(topo)
        policy = GreedyPolicy(routing)
        sim = NetworkSimulator(topo, policy)
        ports = [p for p in sim._node_ports[0] if p.u == 0]
        # A loaded primary port forces the candidate set to be built.
        for port in ports:
            port.count = port.cap
        packet = Packet(src=0, dst=27)
        policy.forward(0, packet, True)
        assert policy._cand_cache
        policy.on_reconfigure()
        # Under no load the next forward never ranks candidates, so the
        # cache it leaves behind holds nothing from before the refresh.
        for port in ports:
            port.count = 0
        policy.forward(0, Packet(src=0, dst=27), True)
        assert not policy._cand_cache
