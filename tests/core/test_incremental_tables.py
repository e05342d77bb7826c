"""Window rows, recomputed where a writer touched them.

``GreediestRouting`` keeps one state per router, its usable window as
a padded row, which is a function of the active topology, the failed
wires and the blocked nodes.  ``rebuild(nodes)`` recomputes the listed
rows from those inputs.  These tests hold the rows to the per-entry
table oracle (:mod:`tests.core.routing_oracle`) entry for entry, check
that the scalar row arrays are a cache cut from the rows and dropped at
every ``version`` bump, and that offline reconfiguration recomputes
only the rows it updates.
"""

from __future__ import annotations

import numpy as np

from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import AdaptiveGreediestRouting, GreediestRouting
from repro.core.topology import LinkDirection, StringFigureTopology
from repro.faults.detector import TableRepair
from repro.network.elastic import LiveReconfigurator
from repro.network.policies import GreedyPolicy
from repro.network.simulator import NetworkSimulator
from repro.topologies.registry import make_topology
from tests.core.routing_oracle import RoutingTable, oracle_tables


def assert_rows_current(routing, failed_links=(), blocked=()):
    """Every active router's row and neighbor map equal the usable
    window of its oracle table, and inactive routers have none."""
    tables = oracle_tables(routing.topology, failed_links, blocked)
    assert sorted(routing.nbr_index) == sorted(tables)
    for node, table in tables.items():
        window = table.usable_window()
        assert routing.window(node) == window, node
        one_hop = [w for w, hop, _vias in window if hop == 1]
        assert routing.nbr_index[node] == {w: i for i, w in enumerate(one_hop)}, node


def assert_same_rows(routing, reference):
    assert routing.nbr_index == reference.nbr_index
    for node in range(routing.topology.num_nodes):
        assert routing.window(node) == reference.window(node), node


class TestBuild:
    def test_fresh_window_is_the_usable_window_of_a_fresh_table(self):
        for topo in (
            make_topology("SF", 144, seed=0),
            StringFigureTopology(96, 6, seed=2, direction=LinkDirection.UNI),
        ):
            routing = GreediestRouting(topo)
            for node in topo.active_nodes:
                window = RoutingTable.build(topo, node).usable_window()
                assert routing.window(node) == window
                one_hop = [w for w, hop, _vias in window if hop == 1]
                assert routing.nbr_index[node] == {w: i for i, w in enumerate(one_hop)}
            assert routing._rows == {}

    def test_view_matches_the_table_entries(self):
        """Reconstruct a router's scalar row arrays from the oracle's
        entries, independently of its window: one-hop rows, reachable
        two-hop rows, via relation."""
        topo = StringFigureTopology(64, 4, seed=3)
        routing = GreediestRouting(topo)
        node = topo.active_nodes[5]
        blocked = topo.neighbors(node)[0]
        routing.blocked.add(blocked)
        routing.rebuild(routing.routers_listing([blocked]))
        table = oracle_tables(topo, (), {blocked})[node]
        entries = table._entries
        usable = [e for _n, e in sorted(entries.items()) if e.valid and not e.blocked]
        one_hop = [e.node for e in usable if e.hop == 1]
        window = one_hop + [e.node for e in usable if e.hop == 2 and e.vias & set(one_hop)]
        row = routing._row(node)
        assert row.k == len(one_hop)
        assert row.ids.tolist() == window
        assert row.coords[0].tolist() == list(topo.coords.vector(node))
        assert row.coords[1:].tolist() == [list(topo.coords.vector(w)) for w in window]
        for j, target in enumerate(window):
            expected = [i for i, via in enumerate(one_hop) if via in entries[target].vias]
            assert row.vias[j] == expected
            finite = np.flatnonzero(np.isfinite(row.inf_mask[:, j])).tolist()
            assert finite == expected

    def test_tables_build_on_first_read(self):
        """Scalar row arrays are cut on a router's first scalar read and
        dropped at the next ``version`` bump; the rows stay."""
        topo = StringFigureTopology(64, 4, seed=3)
        routing = GreediestRouting(topo)
        version = routing.version
        assert routing._rows == {}
        node = topo.active_nodes[7]
        row = routing._row(node)
        assert routing._rows == {node: row}
        assert routing._row(node) is row
        assert routing.version == version
        routing.candidate_set(node, topo.active_nodes[0])
        assert routing._rows == {node: row}
        routing.refresh_views()
        assert routing._rows == {} and routing.columns == {}
        assert_rows_current(routing)


class TestWorkSaved:
    def test_power_gate_builds_fewer_tables_than_it_updates(self, monkeypatch):
        """A gate recomputes exactly the rows it updates, once, and
        leaves every other row as it was."""
        topo = make_topology("SF", 144, seed=0)
        routing = GreediestRouting(topo)
        manager = ReconfigurationManager(topo, routing)
        victim = manager.gate_candidates(1)[0]
        for node in topo.active_nodes[::5]:
            routing._row(node)
        before = {v: routing.window(v) for v in range(topo.num_nodes)}
        rebuilt = []
        rebuild = routing.rebuild

        def counting_rebuild(nodes=None):
            rebuilt.append(list(nodes))
            return rebuild(nodes)

        monkeypatch.setattr(routing, "rebuild", counting_rebuild)
        (event,) = manager.power_gate(victim)
        updated = set(event.tables_updated) | {victim}
        assert rebuilt == [sorted(updated)]
        assert len(updated) < len(topo.active_nodes)
        assert routing._rows == {}
        for node, window in before.items():
            if node not in updated:
                assert routing.window(node) == window, node
        assert_rows_current(routing)

    def test_unchanged_windows_keep_their_views(self):
        """Recomputing rows whose inputs did not change leaves every row
        as it was; the scalar row arrays go with the bump."""
        topo = make_topology("SF", 144, seed=0)
        routing = GreediestRouting(topo)
        active = topo.active_nodes
        for v in active[:40]:
            routing._row(v)
        win, via, k = routing._win.copy(), routing._win_via.copy(), routing._win_k.copy()
        version = routing.version
        routing.refresh_views()
        routing.rebuild(active[20:60])
        assert routing.version == version + 2
        assert routing._rows == {}
        assert (routing._win == win).all() and (routing._win_via == via).all()
        assert (routing._win_k == k).all()
        assert_rows_current(routing)


def live_system(nodes, ports, seed):
    topo = StringFigureTopology(nodes, ports, seed=seed)
    routing = AdaptiveGreediestRouting(topo)
    policy = GreedyPolicy(routing)
    sim = NetworkSimulator(topo, policy)
    manager = ReconfigurationManager(topo, routing)
    live = LiveReconfigurator(sim, manager, policy)
    return topo, routing, sim, manager, live, TableRepair(routing)


def test_prune_beside_live_gate_off_then_restore_link():
    """A fault-repair prune next to a live gate-off, then one of its
    links restored: the rows must equal the oracle's tables with only
    the links still failed imposed.  Recomputing only the restored
    link's rows must not leave its look-ahead pruned."""
    topo, routing, sim, manager, live, repair = live_system(48, 4, 7)
    victim = manager.gate_candidates(1)[0]
    u = topo.neighbors(victim)[0]
    v = next(w for w in topo.neighbors(u) if w != victim)
    x = next(w for w in topo.neighbors(victim) if w not in (u, v))
    y = next(w for w in topo.neighbors(x) if w not in (victim, u, v))
    repair.route_around_link(u, v)
    repair.route_around_link(x, y)
    assert any(
        routing.window(r) != RoutingTable.build(topo, r).usable_window() for r in topo.neighbors(u)
    )

    live.gate_off([victim], at=10)
    sim.run(until=50_000)
    assert not topo.is_active(victim)
    assert len(live.events) == 1  # appended when the gate-off completes

    repair.restore_link(u, v)
    assert repair.failed_links == {(min(x, y), max(x, y))}

    reference = AdaptiveGreediestRouting(topo)
    reference.failed_links.add((min(x, y), max(x, y)))
    reference.rebuild()
    assert_same_rows(routing, reference)
    assert_rows_current(routing, repair.failed_links)
