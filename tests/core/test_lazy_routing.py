"""The declared routing state against the per-entry table oracle.

``GreediestRouting`` keeps one state per router: its usable window, a
row computed from the active topology, the failed wires and the blocked
nodes, and recomputed only where a writer touched it.  The reference
here is :mod:`tests.core.routing_oracle`: every active router's table
built from scratch, with the failed wires and blocked nodes imposed bit
by bit.  It replays the same operations on a twin topology, keeping its
own failed and blocked sets: offline gate/wake batches, live gate-offs
(checked mid-window, with links failed and restored inside the open
window), and failed and restored links through ``TableRepair``, with
failures carried across later batches.  After every step each active
router's row and ``nbr_index`` entry must equal the oracle's, every
decision column must equal one cut from rows recomputed from scratch,
and sampled columns must agree with the scalar ``next_hop``.

The guard tests count scalar row arrays: construction cuts none, and a
uniform episode, whose every hop a decision column answers, cuts none.

``HYPOTHESIS_PROFILE=ci`` runs more, derandomized examples.
"""

from __future__ import annotations

import copy
import os
import types

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import routing as routing_module
from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import GreediestRouting
from repro.core.topology import LinkDirection, StringFigureTopology
from repro.faults.detector import TableRepair
from repro.network.elastic import LiveReconfigurator
from repro.network.policies import GreedyPolicy
from repro.network.simulator import NetworkSimulator
from repro.topologies.registry import make_policy, make_topology
from repro.traffic.injection import run_synthetic
from repro.traffic.patterns import make_pattern
from tests.core.routing_oracle import oracle_tables

_CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"


class Twin:
    """The system under test beside its reference, on twin topologies."""

    def __init__(self, nodes, ports, seed, direction, use_two_hop) -> None:
        topo = StringFigureTopology(nodes, ports, seed=seed, direction=direction)
        self.routing = GreediestRouting(topo, use_two_hop=use_two_hop)
        policy = GreedyPolicy(self.routing)
        self.sim = NetworkSimulator(topo, policy)
        self.manager = ReconfigurationManager(topo, self.routing)
        self.live = LiveReconfigurator(self.sim, self.manager, policy)
        self.repair = TableRepair(self.routing)
        self.ref_topo = StringFigureTopology(nodes, ports, seed=seed, direction=direction)
        # The oracle is rebuilt from scratch at every check, so the
        # reference manager's rebuilds have nothing to do.
        stub = types.SimpleNamespace(rebuild=lambda nodes=None: None)
        self.ref_manager = ReconfigurationManager(self.ref_topo, stub)
        self.ref_failed: set[tuple[int, int]] = set()
        self.ref_blocked: set[int] = set()

    @property
    def topo(self) -> StringFigureTopology:
        return self.routing.topology

    def oracle(self):
        return oracle_tables(self.ref_topo, self.ref_failed, self.ref_blocked)

    def gate(self, pick) -> None:
        candidates = self.manager.gate_candidates(4)
        victims = pick.sample(candidates, pick.randint(0, len(candidates)))
        assert self.manager.power_gate(*victims) == self.ref_manager.power_gate(*victims)

    def wake(self, pick) -> None:
        gated = [v for v in range(self.topo.num_nodes) if not self.topo.is_active(v)]
        woken = pick.sample(gated, pick.randint(0, len(gated)))
        assert self.manager.power_on(*woken) == self.ref_manager.power_on(*woken)

    def live_gate_off(self, pick) -> None:
        """Block, check mid-window (also after failing or restoring a
        link inside the window), then switch and unblock."""
        candidates = self.manager.gate_candidates(2)
        if not candidates:
            return
        victims = pick.sample(candidates, pick.randint(1, len(candidates)))
        sim, live = self.sim, self.live
        live.gate_off(victims, at=sim.now + 1)
        sim.run(until=sim.now + 2)
        assert live._window_active and self.routing.blocked == set(victims)
        self.ref_blocked = set(victims)
        tables = self.oracle()
        assert live._probe_routers == {
            r for r, table in tables.items() if any(x in table for x in victims)
        }
        self.check(pick)
        for step in pick.sample((self.fail_link, self.restore_link), pick.randint(0, 2)):
            step(pick)
            self.check(pick)
        sim.run(until=sim.now + live.sleep_cycles + 1_000)
        assert live.pending_operations == 0
        self.ref_manager.power_gate(*victims)
        self.ref_blocked = set()

    def fail_link(self, pick) -> None:
        links = [
            (u, v)
            for u in self.topo.active_nodes
            for v in self.topo.neighbors(u)
            if (min(u, v), max(u, v)) not in self.ref_failed
        ]
        if links:
            u, v = pick.choice(links)
            self.repair.route_around_link(u, v)
            self.ref_failed.add((min(u, v), max(u, v)))

    def restore_link(self, pick) -> None:
        if self.ref_failed:
            u, v = pick.choice(sorted(self.ref_failed))
            self.repair.restore_link(u, v)
            self.ref_failed.discard((u, v))

    def read(self, pick) -> None:
        """Scalar decisions: each cuts the row arrays of the router it reads."""
        active = self.topo.active_nodes
        for _ in range(3):
            self.routing.candidate_set(pick.choice(active), pick.choice(active))

    def check(self, pick) -> None:
        routing = self.routing
        active = self.topo.active_nodes
        assert active == self.ref_topo.active_nodes
        assert sorted(routing.nbr_index) == active
        tables = self.oracle()
        for v in active:
            window = tables[v].usable_window()
            assert routing.window(v) == window, v
            one_hop = [node for node, hop, _vias in window if hop == 1]
            assert routing.nbr_index[v] == {w: i for i, w in enumerate(one_hop)}, v
        columns = {dst: list(routing.column(dst)) for dst in active}
        # Every row recomputed at once from the same three inputs.
        scratch = copy.deepcopy(routing)
        scratch.rebuild()
        assert {dst: list(scratch.column(dst)) for dst in active} == columns
        for dst in pick.sample(active, min(len(active), 4)):
            for current in active:
                if current != dst:
                    assert_entry_is_scalar(routing, columns[dst][current], current, dst)


def assert_entry_is_scalar(routing, entry, current, dst):
    """A packed column entry equals the scalar ``next_hop`` decision:
    ``-1`` exactly where the scalar path takes the ring walk."""
    try:
        nxt, commit, fallback_md = routing.next_hop(current, dst)
    except RuntimeError:
        assert entry < 0, (current, dst)
        return
    if fallback_md is not None:
        assert entry < 0, (current, dst)
    else:
        assert entry == nxt * routing.column_stride + commit + 1, (current, dst)


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


@settings(max_examples=10 if _CI else 3, deadline=None, derandomize=_CI)
@given(
    nodes=st.integers(16, 144),
    seed=st.integers(0, 2**16),
    uni=st.booleans(),
    steps=st.lists(
        st.sampled_from(("gate", "wake", "fail_link", "restore_link")),
        min_size=2,
        max_size=8,
    ),
    pick=st.randoms(use_true_random=False),
)
def test_failures_carried_across_offline_batches(nodes, seed, uni, steps, pick):
    """Failed wires stay out of every recomputed window while offline
    batches gate and wake nodes around them."""
    direction = LinkDirection.UNI if uni else LinkDirection.BI
    twin = Twin(nodes, 4, seed, direction, True)
    twin.fail_link(pick)
    for step in steps:
        getattr(twin, step)(pick)
        twin.check(pick)


class Cuts:
    """Counts the scalar row arrays cut (``_Row`` inits)."""

    def __init__(self, monkeypatch) -> None:
        self.rows = 0
        row_init = routing_module._Row.__init__

        def counting_row(row, *args):
            self.rows += 1
            row_init(row, *args)

        monkeypatch.setattr(routing_module._Row, "__init__", counting_row)


def test_paper_scale_policy_builds_no_table_or_view(monkeypatch):
    cuts = Cuts(monkeypatch)
    policy = make_policy(make_topology("SF", 1296, seed=0))
    assert policy.routing.column(7) is not None
    assert cuts.rows == 0


def test_uniform_episode_builds_no_router(monkeypatch):
    """Every hop of a seed-0 uniform episode is answered by a decision
    column, so no router's scalar row arrays are ever cut."""
    cuts = Cuts(monkeypatch)
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
    assert cuts.rows == 0
