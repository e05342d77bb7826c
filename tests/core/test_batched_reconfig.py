"""One reconfiguration batch equals the same nodes one call at a time.

``ReconfigurationManager`` runs the paper's four steps over a batch of
nodes: each node is blocked, switched and diffed in order exactly as a
lone node would be, and the union of their windows is recomputed once
at the end.  Because a window is a function of the final topology, a
batch must leave everything a one-call-per-node sequence leaves: the
same window rows, the same active shortcuts, the same live hold sets
and the same event records.  A batch is also checked whole before any of it runs, so a
bad node leaves the network untouched.

``HYPOTHESIS_PROFILE=ci`` runs more, derandomized examples.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import GreediestRouting
from repro.core.topology import LinkDirection, StringFigureTopology
from repro.network.config import NetworkConfig
from repro.network.elastic import LiveReconfigurator
from repro.network.policies import GreedyPolicy
from repro.network.simulator import NetworkSimulator
from tests.core.test_incremental_tables import assert_rows_current, assert_same_rows
from tests.core.test_routing_kernels import assert_pair_matches_scalar

_CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"


def make_system(nodes, ports, seed, direction=LinkDirection.BI):
    topo = StringFigureTopology(nodes, ports, seed=seed, direction=direction)
    routing = GreediestRouting(topo)
    return topo, routing, ReconfigurationManager(topo, routing)


def hold_set(events, routing):
    """The routers a live switch holds arrivals at (``_after_switch``)."""
    return {r for e in events for r in e.tables_updated if r in routing.nbr_index}


def assert_same_state(one, batch):
    (topo_a, routing_a, manager_a), (topo_b, routing_b, manager_b) = one, batch
    assert topo_a.node_active == topo_b.node_active
    assert topo_a.active_shortcuts == topo_b.active_shortcuts
    assert_same_rows(routing_b, routing_a)
    assert_rows_current(routing_b)
    assert manager_b.events == manager_a.events


def assert_kernel_agrees(system, pick, pairs=60):
    """Decision columns still match scalar ``next_hop`` (sampled)."""
    topo, routing, _manager = system
    active = topo.active_nodes
    for _ in range(pairs):
        current, dst = pick.choice(active), pick.choice(active)
        if current != dst:
            assert_pair_matches_scalar(routing, current, dst)


@settings(max_examples=40 if _CI else 8, deadline=None, derandomize=_CI)
@given(
    nodes=st.integers(16, 160),
    ports=st.sampled_from([4, 6, 8]),
    seed=st.integers(0, 2**16),
    uni=st.booleans(),
    spacing=st.integers(2, 4),
    pick=st.randoms(use_true_random=False),
)
def test_batch_equals_one_call_per_node(nodes, ports, seed, uni, spacing, pick):
    direction = LinkDirection.UNI if uni else LinkDirection.BI
    one = make_system(nodes, ports, seed, direction)
    batch = make_system(nodes, ports, seed, direction)
    candidates = one[2].gate_candidates(nodes, min_spacing=spacing)
    victims = pick.sample(candidates, pick.randint(0, len(candidates)))

    sequential = [e for v in victims for e in one[2].power_gate(v)]
    batched = batch[2].power_gate(*victims)
    assert batched == sequential
    assert hold_set(batched, batch[1]) == hold_set(sequential, one[1])
    assert_same_state(one, batch)
    assert_kernel_agrees(batch, pick)

    woken = victims[::-1]
    sequential = [e for v in woken for e in one[2].power_on(v)]
    batched = batch[2].power_on(*woken)
    assert batched == sequential
    assert hold_set(batched, batch[1]) == hold_set(sequential, one[1])
    assert_same_state(one, batch)
    assert_kernel_agrees(batch, pick)


class TestBatchChecked:
    """A batch is refused whole, before any node of it is touched."""

    @pytest.fixture
    def system(self):
        return make_system(64, 4, seed=7)

    def assert_untouched(self, system, op, *nodes, match=None):
        topo, routing, manager = system
        windows = [routing.window(v) for v in range(topo.num_nodes)]
        active, version = list(topo.node_active), routing.version
        with pytest.raises(ValueError, match=match):
            op(*nodes)
        assert topo.node_active == active
        assert [routing.window(v) for v in range(topo.num_nodes)] == windows
        assert routing.version == version
        assert routing.blocked == set()
        assert manager.events == []

    def test_repeated_node(self, system):
        victim = system[2].gate_candidates(1)[0]
        self.assert_untouched(
            system, system[2].power_gate, victim, victim, match="repeats in the batch"
        )

    def test_bad_node_anywhere_in_the_batch(self, system):
        _topo, _routing, manager = system
        a, b = manager.gate_candidates(2)
        self.assert_untouched(system, manager.power_gate, a, b, 64)
        self.assert_untouched(system, manager.power_gate, a, -1)
        self.assert_untouched(system, manager.power_on, a)
        self.assert_untouched(system, manager.mount, 0)

    def test_floor_counts_earlier_victims_of_the_batch(self):
        system = make_system(4, 4, seed=0)
        self.assert_untouched(system, system[2].power_gate, 0, 1, 2)
        system[2].power_gate(0, 1)
        assert system[0].active_nodes == [2, 3]

    def test_empty_batch_is_a_no_op(self, system):
        _topo, routing, manager = system
        version = routing.version
        assert manager.power_gate() == []
        assert routing.version == version


def test_live_gate_off_rebuilds_once(monkeypatch):
    """One live gate-off of k nodes recomputes rows three times: the
    block phase the routers listing a victim, the switch the union of
    the updated rows, once for the whole batch, and the unblock none
    (no active router lists a gated victim)."""
    topo = StringFigureTopology(144, 4, seed=0)
    routing = GreediestRouting(topo)
    policy = GreedyPolicy(routing)
    sim = NetworkSimulator(topo, policy, NetworkConfig())
    manager = ReconfigurationManager(topo, routing)
    live = LiveReconfigurator(sim, manager, policy)
    victims = live.select_victims(fraction=0.25)
    assert len(victims) > 1
    active = len(topo.active_nodes)

    listing = {
        r for v in victims for r in routing.routers_listing((v,)) if r != v
    }
    rebuilds = []
    rebuild = routing.rebuild

    def counting_rebuild(nodes=None):
        rebuilds.append(list(nodes))
        return rebuild(nodes)

    monkeypatch.setattr(routing, "rebuild", counting_rebuild)
    live.gate_off(victims, at=10)
    sim.run(until=5_000)
    (event,) = live.events
    assert len(event.offline_events) == len(victims)
    block, switch, unblock = rebuilds
    assert block == sorted(listing) and 0 < len(block) <= active
    updated = set(victims).union(*(e.tables_updated for e in event.offline_events))
    assert switch == sorted(updated)
    assert unblock == []
    assert_rows_current(routing)
