"""The simulator's inline decision-column hop against the scalar path.

On every plain hop after the first the simulator reads the
destination's decision column itself, and it resolves a committed hop
from the packet's ``commit`` field (direct delivery first, then a
still-usable commit).  With ``routing.kernel_max_nodes = N - 1`` there
are no columns, so every hop calls ``GreedyPolicy.forward`` and takes
the scalar ``next_hop``: the two runs must produce bit-identical
SimStats (and per-class latency samples under QoS), for synthetic
traffic and a class-aware interference run, with and without a live
gate-off while packets are in flight.  A second test swaps the
simulator's policy mid-run, as fault repair does, and checks that
VCs and next hops then come from the new policy.
``HYPOTHESIS_PROFILE=ci`` runs more, derandomized examples.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import AdaptiveGreediestRouting, GreediestRouting, RouteState
from repro.core.topology import LinkDirection, StringFigureTopology
from repro.faults.detector import TableRepair
from repro.network.elastic import LiveReconfigurator
from repro.network.packet import Packet
from repro.network.policies import GreedyPolicy, MinimalPolicy
from repro.network.simulator import NetworkSimulator
from repro.traffic.injection import BernoulliInjector, run_synthetic
from repro.traffic.patterns import make_pattern
from repro.workloads.interference import run_interference
from tests.network.golden_grid import qos_digest, stats_digest

_CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"

WARMUP, MEASURE, DRAIN = 50, 300, 40_000


def _policy(topo, use_two_hop, adaptive, scalar):
    kind = AdaptiveGreediestRouting if adaptive else GreediestRouting
    routing = kind(topo, use_two_hop=use_two_hop)
    if scalar:
        routing.kernel_max_nodes = topo.num_nodes - 1
    return GreedyPolicy(routing)


def _gate(sim, policy, victims, at):
    """Gate *victims* off at cycle *at* and wake them once that is done."""
    manager = ReconfigurationManager(sim.topology, policy.routing)
    live = LiveReconfigurator(sim, manager, policy)
    live.gate_off(victims, at=at)
    live.gate_on(victims, at=at + 1)
    return live


def _victims(topo, gate):
    if not gate:
        return []
    routing = GreediestRouting(topo)
    return ReconfigurationManager(topo, routing).gate_candidates(max(1, topo.num_nodes // 8))


def _synthetic(nodes, seed, uni, use_two_hop, adaptive, gate, scalar):
    direction = LinkDirection.UNI if uni else LinkDirection.BI
    topo = StringFigureTopology(nodes, 4, seed=seed, direction=direction)
    victims = _victims(topo, gate)
    # Traffic never touches the victims, so gating them mid-injection
    # only reroutes transit.
    others = [v for v in topo.active_nodes if v not in victims]
    policy = _policy(topo, use_two_hop, adaptive, scalar)
    lives = []

    def instrument(sim):
        if victims:
            lives.append(_gate(sim, policy, victims, WARMUP + MEASURE // 3))

    stats = run_synthetic(
        topo,
        policy,
        make_pattern("uniform_random", others),
        0.2,
        warmup=WARMUP,
        measure=MEASURE,
        drain_limit=DRAIN,
        seed=seed,
        sources=others,
        instrument=instrument,
    )
    return stats_digest(stats), [ev.kind for live in lives for ev in live.events]


def _interference(nodes, seed, uni, use_two_hop, adaptive, gate, scalar):
    direction = LinkDirection.UNI if uni else LinkDirection.BI
    topo = StringFigureTopology(nodes, 4, seed=seed, direction=direction)
    victims = _victims(topo, gate)
    lives = []

    def instrument(sim):
        policy = _policy(topo, use_two_hop, adaptive, scalar)
        sim.policy = policy
        policy.attach_simulator(sim)
        if victims:
            # Gate once injection stops (every node is a destination
            # here), while the incast backlog is still in flight.
            lives.append(_gate(sim, policy, victims, WARMUP + MEASURE))

    result = run_interference(
        topo,
        mode="incast",
        rate=0.5,
        qos=True,
        warmup=WARMUP,
        measure=MEASURE,
        drain_limit=DRAIN,
        seed=seed,
        instrument=instrument,
    )
    return qos_digest(result), [ev.kind for live in lives for ev in live.events]


@settings(max_examples=12 if _CI else 3, deadline=None, derandomize=_CI)
@given(
    nodes=st.integers(16, 160),
    seed=st.integers(0, 2**16),
    uni=st.booleans(),
    use_two_hop=st.booleans(),
    adaptive=st.booleans(),
    gate=st.booleans(),
)
# Gating at this size leaves in-flight packets with commits that are
# no longer usable, so the stale-commit branch always runs.
@example(nodes=100, seed=1, uni=False, use_two_hop=True, adaptive=True, gate=True)
def test_column_path_equals_scalar_path(nodes, seed, uni, use_two_hop, adaptive, gate):
    for run in (_synthetic, _interference):
        args = (nodes, seed, uni, use_two_hop, adaptive, gate)
        column, column_events = run(*args, scalar=False)
        scalar, scalar_events = run(*args, scalar=True)
        assert column == scalar, run.__name__
        assert column_events == scalar_events
        if gate and column_events:
            assert column_events == ["gate_off", "gate_on"]


@pytest.mark.parametrize("num_vcs", [1, 2])
def test_mid_run_policy_swap(num_vcs):
    """Fault repair replaces ``sim.policy`` mid-run with a
    ``MinimalPolicy`` and then sets its ``num_vcs``: packets sent after
    the swap take the new policy's VC and minimal next hops."""
    topo = StringFigureTopology(48, 4, seed=3)
    sim = NetworkSimulator(topo, GreedyPolicy(AdaptiveGreediestRouting(topo)))
    pattern = make_pattern("uniform_random", topo.active_nodes)
    BernoulliInjector(sim, pattern, 0.2, warmup=0, measure=600, seed=3).start()
    swap_at = 300
    minimal = MinimalPolicy(topo.graph(), adaptive=True)

    def swap(now):
        minimal.num_vcs = num_vcs
        sim.policy = minimal

    sim.schedule(swap_at, swap)
    late: list[Packet] = []
    sim.on_delivery(lambda p, now: late.append(p) if p.inject_time > swap_at else None)
    sim.run(until=600)
    sim.drain(limit=50_000)
    assert sim.stats.sent == sim.stats.delivered
    assert len(late) > 50
    for packet in late:
        assert packet.vc == minimal.select_vc(packet.src, packet.dst)
        assert packet.hops == minimal.distance(packet.src, packet.dst)
    assert {p.vc for p in late} == ({0} if num_vcs == 1 else {0, 1})


def _beyond(routing, topo, other):
    """A destination that neither router 0 nor *other* reaches in one hop."""
    near = set(routing.nbr_index[0]) | set(routing.nbr_index[other])
    return next(d for d in topo.active_nodes if d != 0 and d not in near)


class TestCommittedHop:
    """The inline resolution of one committed, non-first hop."""

    def _setup(self):
        topo = StringFigureTopology(40, 4, seed=9)
        routing = GreediestRouting(topo)
        policy = GreedyPolicy(routing)
        sim = NetworkSimulator(topo, policy)
        calls = []
        forward = policy.forward

        def counted(*args):
            calls.append(args[0])
            return forward(*args)

        policy.forward = counted
        return topo, routing, sim, calls

    def _arrive(self, sim, node, packet):
        """Hand *packet* to *node* as a non-first hop; returns the
        output port it queued on."""
        sim._dst_inflight[packet.dst] += 1
        sim.rearrive(node, packet, None, first_hop=False)
        sim.run(until=sim.now)
        (port,) = [p for p in sim._node_ports[node] if p.u == node and p.count]
        return port.v

    def test_direct_delivery_beats_the_commit(self):
        topo, routing, sim, calls = self._setup()
        dst, other = sorted(routing.usable_neighbors(0))[:2]
        routing.column(dst)
        packet = Packet(src=0, dst=dst, commit=other)
        assert self._arrive(sim, 0, packet) == dst
        assert (packet.commit, calls) == (-1, [])

    def test_usable_commit_is_honored_inline(self):
        topo, routing, sim, calls = self._setup()
        other = min(routing.usable_neighbors(0))
        dst = _beyond(routing, topo, other)
        routing.column(dst)
        packet = Packet(src=0, dst=dst, commit=other)
        assert self._arrive(sim, 0, packet) == other
        assert (packet.commit, calls) == (-1, [])

    def test_stale_commit_asks_the_policy(self):
        topo, routing, sim, calls = self._setup()
        other = min(routing.usable_neighbors(0))
        dst = _beyond(routing, topo, other)
        TableRepair(routing).route_around_link(0, other)
        routing.column(dst)
        want, state = routing.next_hop(0, dst, state=RouteState(commit=other))
        packet = Packet(src=0, dst=dst, commit=other)
        assert self._arrive(sim, 0, packet) == want != other
        assert calls == [0]
        assert packet.commit == (-1 if state.commit is None else state.commit)
