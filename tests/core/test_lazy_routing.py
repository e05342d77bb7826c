"""On-demand routing state against an eager reference.

``GreediestRouting`` builds a router's ``RoutingTable`` and
``_NodeView`` only when something reads them; until then the router is
a row of padded window arrays made from the topology.  The reference
here keeps every active router's table, built from scratch, and
replays the same operations on it: offline gate/wake batches, live
gate-offs (block, then switch and unblock), failed and restored links
through ``TableRepair``.  After every step each active router's table
(built on access), view, ``nbr_index`` entry and every decision column
must equal the reference's.

The guard tests count builds: construction builds none, and a uniform
episode pins how many routers it builds.

``HYPOTHESIS_PROFILE=ci`` runs more, derandomized examples.
"""

from __future__ import annotations

import copy
import os
import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import GreediestRouting, _NodeView
from repro.core.routing_table import RoutingTable
from repro.core.topology import LinkDirection, StringFigureTopology
from repro.faults.detector import TableRepair
from repro.network.elastic import LiveReconfigurator
from repro.network.policies import GreedyPolicy
from repro.network.simulator import NetworkSimulator
from repro.topologies.registry import make_policy, make_topology
from repro.traffic.injection import run_synthetic
from repro.traffic.patterns import make_pattern
from tests.core.test_incremental_tables import stored_window, table_rows, view_arrays

_CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"


class EagerRouting:
    """Every active router's table, built from scratch by ``rebuild``;
    what ``ReconfigurationManager`` and ``TableRepair`` use of a
    routing."""

    def __init__(self, topology: StringFigureTopology) -> None:
        self.topology = topology
        self.tables: dict[int, RoutingTable] = {}
        self.built_tables = self.tables
        self.rebuild()

    def rebuild(self, nodes=None) -> None:
        topo = self.topology
        for v in range(topo.num_nodes) if nodes is None else nodes:
            if topo.is_active(v):
                self.tables[v] = RoutingTable.build(topo, v)
            else:
                self.tables.pop(v, None)

    def live_block(self, victims) -> list[tuple[int, int]]:
        """A live gate-off's block phase, scanning every table."""
        pairs = []
        for router, table in self.tables.items():
            for victim in victims:
                if victim in table:
                    table.block(victim)
                    pairs.append((router, victim))
        return pairs


class Twin:
    """The system under test beside its reference, on twin topologies."""

    def __init__(self, nodes, ports, seed, direction, use_two_hop) -> None:
        topo = StringFigureTopology(nodes, ports, seed=seed, direction=direction)
        self.routing = GreediestRouting(topo, use_two_hop=use_two_hop)
        policy = GreedyPolicy(self.routing)
        self.sim = NetworkSimulator(topo, policy)
        self.manager = ReconfigurationManager(topo, self.routing)
        self.live = LiveReconfigurator(self.sim, self.manager, policy)
        self.repair = TableRepair(self.routing, policy)
        self.live.on_complete.append(lambda event: self.repair.reapply())
        ref_topo = StringFigureTopology(nodes, ports, seed=seed, direction=direction)
        self.reference = EagerRouting(ref_topo)
        self.ref_manager = ReconfigurationManager(ref_topo, self.reference)
        stub = types.SimpleNamespace(on_reconfigure=lambda: None)
        self.ref_repair = TableRepair(self.reference, stub)

    @property
    def topo(self) -> StringFigureTopology:
        return self.routing.topology

    def gate(self, pick) -> None:
        candidates = self.manager.gate_candidates(4)
        victims = pick.sample(candidates, pick.randint(0, len(candidates)))
        assert self.manager.power_gate(*victims) == self.ref_manager.power_gate(*victims)

    def wake(self, pick) -> None:
        gated = [v for v in range(self.topo.num_nodes) if not self.topo.is_active(v)]
        woken = pick.sample(gated, pick.randint(0, len(gated)))
        assert self.manager.power_on(*woken) == self.ref_manager.power_on(*woken)

    def live_gate_off(self, pick) -> None:
        candidates = self.manager.gate_candidates(2)
        if not candidates:
            return
        victims = pick.sample(candidates, pick.randint(1, len(candidates)))
        sim, live = self.sim, self.live
        live.gate_off(victims, at=sim.now + 1)
        sim.run(until=sim.now + 2)
        assert live._window_active and live._blocked_pairs
        pairs = self.reference.live_block(victims)
        assert sorted(live._blocked_pairs) == sorted(pairs)
        self.check(pick)
        sim.run(until=sim.now + live.sleep_cycles + 1_000)
        assert live.pending_operations == 0
        self.ref_manager.power_gate(*victims)
        for router, victim in pairs:
            table = self.reference.tables.get(router)
            if table is not None:
                table.unblock(victim)
        self.ref_repair.reapply()

    def fail_link(self, pick) -> None:
        links = [
            (u, v)
            for u in self.topo.active_nodes
            for v in self.topo.neighbors(u)
            if (min(u, v), max(u, v)) not in self.repair.failed_links
        ]
        if links:
            u, v = pick.choice(links)
            self.repair.route_around_link(u, v)
            self.ref_repair.route_around_link(u, v)

    def restore_link(self, pick) -> None:
        if self.repair.failed_links:
            u, v = pick.choice(sorted(self.repair.failed_links))
            self.repair.restore_link(u, v)
            self.ref_repair.restore_link(u, v)

    def read(self, pick) -> None:
        """Scalar decisions: each builds the router it reads."""
        active = self.topo.active_nodes
        for _ in range(3):
            self.routing.candidate_set(pick.choice(active), pick.choice(active))

    def check(self, pick) -> None:
        routing, reference = self.routing, self.reference
        active = self.topo.active_nodes
        assert active == reference.topology.active_nodes
        assert sorted(routing.tables) == sorted(routing.nbr_index) == active
        assert sorted(reference.tables) == active
        for v in active:
            window = reference.tables[v].usable_window()
            assert stored_window(routing, v) == window, v
        columns = {dst: list(routing.column(dst)) for dst in active}
        # Every router read on a copy, so the system under test stays
        # as unbuilt as its operations left it.
        eager = copy.deepcopy(routing)
        for v in active:
            table = reference.tables[v]
            view = _NodeView(table.usable_window(), routing._coord_matrix, v)
            assert table_rows(eager.tables[v]) == table_rows(table), v
            assert view_arrays(eager._view(v)) == view_arrays(view), v
            assert routing.nbr_index[v] == view.id_to_nbr_index, v
        # Every row of the copy is now a built table's view; once the
        # refresh drops the copied columns, its columns are the eager
        # ones, and they agree with the scalar path on its views.
        eager.refresh_views()
        assert {dst: list(eager.column(dst)) for dst in active} == columns
        for dst in pick.sample(active, min(len(active), 4)):
            for current in active:
                if current != dst:
                    assert_entry_is_scalar(eager, columns[dst][current], current, dst)


def assert_entry_is_scalar(routing, entry, current, dst):
    """A packed column entry equals the scalar ``next_hop`` decision:
    ``-1`` exactly where the scalar path takes the ring walk."""
    try:
        nxt, state = routing.next_hop(current, dst)
    except RuntimeError:
        assert entry < 0, (current, dst)
        return
    if state.in_fallback:
        assert entry < 0, (current, dst)
    else:
        commit = 0 if state.commit is None else state.commit + 1
        assert entry == nxt * routing.column_stride + commit, (current, dst)


STEPS = ("gate", "wake", "live_gate_off", "fail_link", "restore_link", "read")


@settings(max_examples=25 if _CI else 5, deadline=None, derandomize=_CI)
@given(
    nodes=st.integers(16, 324),
    ports=st.sampled_from([4, 6, 8]),
    seed=st.integers(0, 2**16),
    uni=st.booleans(),
    use_two_hop=st.booleans(),
    steps=st.lists(st.sampled_from(STEPS), min_size=1, max_size=6),
    pick=st.randoms(use_true_random=False),
)
def test_on_demand_state_equals_eager_reference(nodes, ports, seed, uni, use_two_hop, steps, pick):
    direction = LinkDirection.UNI if uni else LinkDirection.BI
    twin = Twin(nodes, ports, seed, direction, use_two_hop)
    twin.check(pick)
    for step in steps:
        getattr(twin, step)(pick)
        twin.check(pick)


class Builds:
    """Counts ``RoutingTable.build`` calls and ``_NodeView`` inits."""

    def __init__(self, monkeypatch) -> None:
        self.tables = self.views = 0
        build = RoutingTable.build.__func__
        view_init = _NodeView.__init__

        def counting_build(cls, topology, owner):
            self.tables += 1
            return build(cls, topology, owner)

        def counting_view(view, *args):
            self.views += 1
            view_init(view, *args)

        monkeypatch.setattr(RoutingTable, "build", classmethod(counting_build))
        monkeypatch.setattr(_NodeView, "__init__", counting_view)


def test_paper_scale_policy_builds_no_table_or_view(monkeypatch):
    builds = Builds(monkeypatch)
    policy = make_policy(make_topology("SF", 1296, seed=0))
    assert policy.routing.column(7) is not None
    assert (builds.tables, builds.views) == (0, 0)


def test_uniform_episode_builds_no_router(monkeypatch):
    """Every hop of a seed-0 uniform episode is answered by a decision
    column, so no router's table or view is ever built."""
    builds = Builds(monkeypatch)
    topo = make_topology("SF", 256, seed=0)
    stats = run_synthetic(
        topo,
        make_policy(topo),
        make_pattern("uniform_random", topo.active_nodes),
        0.05,
        warmup=100,
        measure=300,
        drain_limit=20_000,
        seed=0,
        sample_free=True,
    )
    assert stats.delivered > 0
    assert (builds.tables, builds.views) == (0, 0)
