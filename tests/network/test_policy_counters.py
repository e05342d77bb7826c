"""A routing policy reads its own router's port counters.

A policy has no load callback: ``forward(current, packet, first_hop)``
reads occupancy from the ports of the simulator it was last attached
to, and under a class table only the classes in the packet class's
group count.  These tests hold the class view to the divert decision
(for the real forward and for the live-reconfiguration probe alike)
and a policy shared by several simulators to a fresh one per run.
"""

from __future__ import annotations

import pytest

from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import AdaptiveGreediestRouting, RingBrokenError
from repro.core.topology import StringFigureTopology
from repro.experiments.memo import clear_memo, memo_policy
from repro.network.elastic import LiveReconfigurator
from repro.network.packet import Packet
from repro.network.policies import GreedyPolicy, MinimalPolicy
from repro.network.qos import BACKGROUND_CLASS, BULK_CLASS, LATENCY_CLASS, QoSConfig
from repro.network.simulator import NetworkSimulator
from repro.topologies.registry import make_policy
from repro.traffic.injection import run_synthetic
from repro.traffic.patterns import make_pattern
from tests.network.golden_grid import stats_digest


def _divertible(routing):
    """A ``(router, dst, candidates)`` whose greedy first hop is the
    best of two or more progressing vias, so a loaded primary diverts."""
    active = routing.topology.active_nodes
    return next(
        (u, d, cand)
        for u in active
        for d in active
        if u != d and not routing.is_direct(u, d)
        for cand in [routing.candidate_set(u, d)]
        if len(cand) > 1 and routing.next_hop(u, d)[0] == cand[0][1]
    )


class TestClassView:
    """Background traffic fills a router's primary port: the all-class
    occupancy is past the congestion threshold, the latency class's
    view of it is empty."""

    @pytest.fixture
    def loaded(self):
        topo = StringFigureTopology(40, 4, seed=9)
        routing = AdaptiveGreediestRouting(topo)
        policy = GreedyPolicy(routing)
        sim = NetworkSimulator(topo, policy)
        sim.install_qos(QoSConfig.default())
        router, dst, cand = _divertible(routing)
        primary = cand[0][1]
        port = sim._ports[router * sim._n + primary]
        port.count = port.cls_count[BACKGROUND_CLASS] = port.cap
        assert policy.occupancy(router, primary, BACKGROUND_CLASS) == 1.0
        assert policy.occupancy(router, primary, BULK_CLASS) == 0.0
        assert policy.occupancy(router, primary, LATENCY_CLASS) == 0.0
        return sim, policy, router, dst, cand

    @staticmethod
    def _packet(router, dst, tclass):
        return Packet(src=router, dst=dst, tclass=tclass)

    def test_forward_diverts_only_the_class_that_sees_the_load(self, loaded):
        sim, policy, router, dst, cand = loaded
        primary = cand[0][1]
        background = policy.forward(router, self._packet(router, dst, BACKGROUND_CLASS), True)
        assert background != primary
        assert background in [via for _score, via in cand]
        for tclass in (LATENCY_CLASS, BULK_CLASS):
            assert policy.forward(router, self._packet(router, dst, tclass), True) == primary

    def test_probe_reaches_the_forward_decision(self, loaded, monkeypatch):
        """``_forward_would_fail`` runs the real forward, so it diverts
        exactly the packets the real forward diverts.  With the greedy
        decision made to fail, a diverted packet forwards and an
        undiverted one fails, in the probe as in the real call."""
        sim, policy, router, dst, _cand = loaded
        routing = policy.routing
        live = LiveReconfigurator(sim, ReconfigurationManager(sim.topology, routing), policy)
        # No decision columns: the undiverted first hop takes the scalar
        # next_hop, which now fails.
        routing.kernel_max_nodes = sim.topology.num_nodes - 1
        routing.refresh_views()

        def stuck(current, *_args):
            raise RingBrokenError(f"space-0 ring broken at node {current}")

        monkeypatch.setattr(routing, "next_hop", stuck)
        for tclass, fails in (
            (BACKGROUND_CLASS, False),
            (BULK_CLASS, True),
            (LATENCY_CLASS, True),
        ):
            probed = self._packet(router, dst, tclass)
            assert live._forward_would_fail(router, probed, True) is fails
            packet = self._packet(router, dst, tclass)
            if fails:
                with pytest.raises(RingBrokenError):
                    policy.forward(router, packet, True)
            else:
                policy.forward(router, packet, True)


def test_reattach_reads_the_new_simulators_ports():
    """A policy re-attached to another simulator drops the quick-reject
    ports of the first: a load on the new simulator's primary port
    diverts a first hop the old simulator's empty ports would not."""
    topo = StringFigureTopology(40, 4, seed=9)
    routing = AdaptiveGreediestRouting(topo)
    policy = GreedyPolicy(routing)
    old = NetworkSimulator(topo, policy)
    router, dst, cand = _divertible(routing)
    primary = cand[0][1]
    # Unloaded: the quick reject scans the router's ports on *old*.
    assert policy.forward(router, Packet(src=router, dst=dst), True) == primary
    assert router in policy._probes
    new = NetworkSimulator(topo, policy)
    port = new._ports[router * new._n + primary]
    port.count = port.cap
    assert policy.forward(router, Packet(src=router, dst=dst), True) != primary
    # Re-attached to the old simulator, the same hop is quiet again.
    policy.attach_simulator(old)
    assert policy.forward(router, Packet(src=router, dst=dst), True) == primary


@pytest.fixture
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


def _run(topo, policy, seed):
    pattern = make_pattern("uniform_random", topo.active_nodes)
    stats = run_synthetic(
        topo, policy, pattern, 0.8, warmup=50, measure=250, drain_limit=20_000, seed=seed
    )
    return stats_digest(stats)


@pytest.mark.parametrize("design", ["SF", "DM"])
def test_memo_policy_serves_each_simulator_it_is_attached_to(design, fresh_memo):
    """One memoized policy drives simulators built one after another;
    each run reproduces the SimStats of the same run on a fresh
    policy."""
    topo, policy = memo_policy(design, 36, 0)
    if design == "SF":
        assert isinstance(policy.routing, AdaptiveGreediestRouting)
    else:
        assert isinstance(policy, MinimalPolicy) and policy.adaptive
    seeds = (1, 2, 1)
    shared = [_run(topo, policy, seed) for seed in seeds]
    assert shared == [_run(topo, make_policy(topo), seed) for seed in seeds]
    # The adaptive divert decided something: the load the policy read
    # changed the runs.
    assert shared[0] != _run(topo, make_policy(topo, adaptive=False), seeds[0])
