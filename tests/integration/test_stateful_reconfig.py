"""Stateful property test: arbitrary reconfiguration sequences.

A hypothesis state machine drives random sequences of power-gate /
power-on / unmount / mount operations against one String Figure
network and checks the global invariants after every step:

* the active network stays connected;
* every active pair remains routable (sampled);
* routing tables reference only active nodes;
* every active router's table equals a fresh build, entry for entry,
  and its vectorized view equals one freshly built from that table
  (the incremental rebuild skips work, never changes the result);
* port budgets are never exceeded;
* restoring all nodes returns to the pristine link set.

Two hypothesis profiles are registered: the quick ``dev`` profile
(default) and a ``ci`` profile with more examples, longer operation
sequences and derandomized (fixed-derivation) example generation, so
the CI job is both more thorough and perfectly reproducible.  Select
with ``HYPOTHESIS_PROFILE=ci``.  The profile is applied to this
module's state machine only — never loaded globally, which would
silently shrink the example budget of every other property test in
the session.
"""

from __future__ import annotations

import os

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

settings.register_profile(
    "dev", settings(max_examples=12, stateful_step_count=12, deadline=None)
)
settings.register_profile(
    "ci",
    settings(
        max_examples=60,
        stateful_step_count=30,
        deadline=None,
        derandomize=True,
        print_blob=True,
    ),
)

from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import GreediestRouting, _NodeView
from repro.core.routing_table import RoutingTable
from repro.core.topology import StringFigureTopology

NUM_NODES = 32


class ReconfigMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.topo = StringFigureTopology(NUM_NODES, 4, seed=21)
        self.routing = GreediestRouting(self.topo)
        self.manager = ReconfigurationManager(self.topo, self.routing)
        self.baseline_links = set(self.topo.active_links())
        self.gated: list[int] = []

    @rule(idx=st.integers(min_value=0, max_value=200))
    def gate_one(self, idx):
        candidates = self.manager.gate_candidates(8)
        if not candidates or len(self.topo.active_nodes) <= NUM_NODES // 2:
            return
        victim = candidates[idx % len(candidates)]
        self.manager.power_gate(victim)
        self.gated.append(victim)

    @rule(idx=st.integers(min_value=0, max_value=200))
    def restore_one(self, idx):
        if not self.gated:
            return
        node = self.gated.pop(idx % len(self.gated))
        self.manager.power_on(node)

    @rule()
    def restore_all(self):
        while self.gated:
            self.manager.power_on(self.gated.pop())
        assert set(self.topo.active_links()) == self.baseline_links

    @invariant()
    def network_connected(self):
        if hasattr(self, "manager"):
            assert self.manager.validate_connectivity()

    @invariant()
    def ports_respected(self):
        if not hasattr(self, "topo"):
            return
        for node in self.topo.active_nodes:
            assert self.topo.active_degree(node) <= self.topo.num_ports

    @invariant()
    def tables_reference_active_only(self):
        if not hasattr(self, "routing"):
            return
        active = set(self.topo.active_nodes)
        for node in list(self.routing.tables):
            assert node in active
            table = self.routing.tables[node]
            for entry in table.one_hop() + table.two_hop():
                assert entry.node in active

    @invariant()
    def tables_equal_fresh_builds(self):
        if not hasattr(self, "routing"):
            return

        def rows(table):
            return [
                (e.node, e.hop, e.coords, sorted(e.vias), e.valid, e.blocked)
                for e in table.entries()
            ]

        def arrays(view):
            return (
                view.k,
                view.nbr_ids.tolist(),
                view.nbr_coords.tolist(),
                view.win_ids.tolist(),
                view.win_hop.tolist(),
                [list(vias) for vias in view.via_idx],
                view.inf_mask.tolist(),
                view.all_coords.tolist(),
                view.id_to_nbr_index,
            )

        assert sorted(self.routing.tables) == self.topo.active_nodes
        for node, table in self.routing.tables.items():
            fresh = RoutingTable.build(self.topo, node)
            assert rows(table) == rows(fresh), node
            view = _NodeView(
                fresh.usable_window(), self.routing._coord_matrix, node
            )
            assert arrays(self.routing._views[node]) == arrays(view), node

    @invariant()
    def sampled_pairs_routable(self):
        if not hasattr(self, "routing"):
            return
        active = self.topo.active_nodes
        if len(active) < 2:
            return
        probes = [
            (active[0], active[-1]),
            (active[len(active) // 2], active[1]),
        ]
        for src, dst in probes:
            if src != dst:
                result = self.routing.route(src, dst)
                assert result.path[-1] == dst


TestReconfigStateMachine = ReconfigMachine.TestCase
TestReconfigStateMachine.settings = settings.get_profile(
    os.environ.get("HYPOTHESIS_PROFILE", "dev")
)
