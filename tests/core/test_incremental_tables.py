"""Incremental routing-table maintenance.

``GreediestRouting.rebuild(nodes)`` promises that every listed active
router's table equals a fresh ``RoutingTable.build`` with every bit
clear, however little it actually rebuilds: a table whose neighborhood
did not change, and which carries no repair mutation, is kept with its
blocking bits cleared, and a view is re-snapshotted only when its
usable window changed.  These tests hold the shortcut paths to that
contract entry for entry and array for array, and check that they do
save work.
"""

from __future__ import annotations

import numpy as np

from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import AdaptiveGreediestRouting, GreediestRouting, _NodeView
from repro.core.routing_table import RoutingTable
from repro.core.topology import StringFigureTopology
from repro.faults.detector import TableRepair
from repro.network.elastic import LiveReconfigurator
from repro.network.policies import GreedyPolicy
from repro.network.simulator import NetworkSimulator
from repro.topologies.registry import make_topology


def table_rows(table):
    """Every entry as (node, hop, coords, vias, valid, blocked)."""
    return [
        (e.node, e.hop, e.coords, sorted(e.vias), e.valid, e.blocked)
        for e in table.entries()
    ]


def view_arrays(view):
    return {
        "k": view.k,
        "nbr_ids": view.nbr_ids.tolist(),
        "nbr_coords": view.nbr_coords.tolist(),
        "win_ids": view.win_ids.tolist(),
        "win_hop": view.win_hop.tolist(),
        "via_idx": [list(vias) for vias in view.via_idx],
        "inf_mask": view.inf_mask.tolist(),
        "all_coords": view.all_coords.tolist(),
        "id_to_nbr_index": view.id_to_nbr_index,
    }


def assert_views_current(routing):
    """Each router's view equals one freshly built from its table."""
    for node, table in routing.tables.items():
        fresh = _NodeView(table.usable_window(), routing._coord_matrix, node)
        assert view_arrays(routing._views[node]) == view_arrays(fresh), node


def assert_same_tables(routing, reference):
    assert sorted(routing.tables) == sorted(reference.tables)
    for node, table in routing.tables.items():
        assert table_rows(table) == table_rows(reference.tables[node]), node
        assert view_arrays(routing._views[node]) == view_arrays(
            reference._views[node]
        ), node


class TestBuild:
    def test_fresh_window_is_the_usable_window_of_a_fresh_table(self):
        topo = make_topology("SF", 144, seed=0)
        for node in topo.active_nodes:
            table = RoutingTable.build(topo, node)
            assert table.fresh_window == table.usable_window()
            assert not table.mutated

    def test_view_matches_the_table_entries(self):
        """Reconstruct each view from the entries, independently of the
        window: one-hop rows, reachable two-hop rows, via relation."""
        topo = StringFigureTopology(64, 4, seed=3)
        routing = GreediestRouting(topo)
        node = topo.active_nodes[5]
        table = routing.tables[node]
        table.block(table.one_hop()[0].node)
        routing.refresh_views([node])
        view = routing._views[node]
        one_hop = [e.node for e in table.one_hop()]
        window = one_hop + [
            e.node for e in table.two_hop() if e.vias & set(one_hop)
        ]
        assert view.nbr_ids.tolist() == one_hop
        assert view.win_ids.tolist() == window
        assert view.all_coords[0].tolist() == list(topo.coords.vector(node))
        for j, target in enumerate(window):
            vias = table.lookup(target).vias
            expected = [i for i, via in enumerate(one_hop) if via in vias]
            assert list(view.via_idx[j]) == expected
            finite = np.flatnonzero(np.isfinite(view.inf_mask[:, j])).tolist()
            assert finite == expected

    def test_repair_primitives_mark_the_table(self):
        topo = StringFigureTopology(32, 4, seed=1)
        table = RoutingTable.build(topo, 0)
        table.block_all()
        table.unblock_all()
        assert not table.mutated
        two_hop = table.two_hop()[0]
        table.drop_via(two_hop.node, next(iter(two_hop.vias)))
        assert table.mutated


class TestWorkSaved:
    def test_power_gate_builds_fewer_tables_than_it_updates(self, monkeypatch):
        topo = make_topology("SF", 144, seed=0)
        routing = GreediestRouting(topo)
        manager = ReconfigurationManager(topo, routing)
        before = dict(routing.tables)
        neighborhoods = {
            v: RoutingTable.neighborhood(topo, v) for v in topo.active_nodes
        }
        builds = []
        build = RoutingTable.build.__func__

        def counting_build(cls, topology, owner, neighborhood=None):
            builds.append(owner)
            return build(cls, topology, owner, neighborhood)

        monkeypatch.setattr(RoutingTable, "build", classmethod(counting_build))
        victim = manager.gate_candidates(1)[0]
        event = manager.power_gate(victim)
        assert 0 < len(builds) < len(event.tables_updated)
        assert set(builds) <= set(event.tables_updated)
        for node in topo.active_nodes:
            unchanged = RoutingTable.neighborhood(topo, node) == neighborhoods[node]
            assert (routing.tables[node] is before[node]) == unchanged, node
            assert table_rows(routing.tables[node]) == table_rows(
                RoutingTable.build(topo, node)
            ), node
        assert_views_current(routing)

    def test_unchanged_windows_keep_their_views(self):
        topo = make_topology("SF", 144, seed=0)
        routing = GreediestRouting(topo)
        views = dict(routing._views)
        version = routing.version
        routing.refresh_views()
        routing.rebuild()
        assert routing.version == version + 2
        assert all(routing._views[v] is views[v] for v in views)


def test_prune_beside_live_gate_off_then_restore_link():
    """A fault-repair prune next to a live gate-off, then one of its
    links restored: the tables must equal a full rebuild followed by
    ``reapply()`` of the links still failed.  A rebuild that kept a
    pruned table because its neighborhood looked unchanged would leave
    the restored link's look-ahead pruned."""
    topo = StringFigureTopology(48, 4, seed=7)
    routing = AdaptiveGreediestRouting(topo)
    policy = GreedyPolicy(routing)
    sim = NetworkSimulator(topo, policy)
    manager = ReconfigurationManager(topo, routing)
    live = LiveReconfigurator(sim, manager, policy)
    repair = TableRepair(routing, policy)
    live.on_complete.append(lambda event: repair.reapply())

    victim = manager.gate_candidates(1)[0]
    u = topo.neighbors(victim)[0]
    v = next(w for w in topo.neighbors(u) if w != victim)
    x = next(w for w in topo.neighbors(victim) if w not in (u, v))
    y = next(w for w in topo.neighbors(x) if w not in (victim, u, v))
    repair.route_around_link(u, v)
    repair.route_around_link(x, y)
    assert any(routing.tables[r].mutated for r in topo.neighbors(u))

    live.gate_off([victim], at=10)
    sim.run(until=50_000)
    assert not topo.is_active(victim)
    assert len(live.events) == 1  # appended when the gate-off completes

    repair.restore_link(u, v)
    assert repair.failed_links == {(min(x, y), max(x, y))}

    reference = AdaptiveGreediestRouting(topo)
    ref_repair = TableRepair(reference, GreedyPolicy(reference))
    ref_repair.failed_links = set(repair.failed_links)
    ref_repair.reapply()
    assert_same_tables(routing, reference)
    assert_views_current(routing)
