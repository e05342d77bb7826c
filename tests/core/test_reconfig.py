"""Dynamic and static reconfiguration (paper §III-C)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import GreediestRouting
from repro.core.topology import S2Topology, StringFigureTopology


@pytest.fixture
def system():
    topo = StringFigureTopology(64, 4, seed=7)
    routing = GreediestRouting(topo)
    return topo, routing, ReconfigurationManager(topo, routing)


def _all_pairs_deliver(topo, routing) -> tuple[int, int]:
    total = fallback = 0
    active = topo.active_nodes
    for a in active:
        for b in active:
            if a == b:
                continue
            result = routing.route(a, b)
            assert result.path[-1] == b
            total += result.hops
            fallback += result.fallback_hops
    return total, fallback


class TestPowerGating:
    def test_s2_cannot_reconfigure(self):
        topo = S2Topology(32, 4, seed=1)
        routing = GreediestRouting(topo)
        with pytest.raises(ValueError):
            ReconfigurationManager(topo, routing)

    def test_gate_single_node(self, system):
        topo, routing, mgr = system
        victim = mgr.gate_candidates(1)[0]
        (event,) = mgr.power_gate(victim)
        assert event.kind == "gate_off"
        assert not topo.is_active(victim)
        assert mgr.validate_connectivity()
        _all_pairs_deliver(topo, routing)

    def test_gate_already_inactive_raises(self, system):
        topo, routing, mgr = system
        victim = mgr.gate_candidates(1)[0]
        mgr.power_gate(victim)
        with pytest.raises(ValueError):
            mgr.power_gate(victim)

    def test_power_on_inactive_only(self, system):
        _topo, _routing, mgr = system
        with pytest.raises(ValueError):
            mgr.power_on(0)

    def test_gate_and_restore_roundtrip(self, system):
        topo, routing, mgr = system
        baseline_links = set(topo.active_links())
        victims = mgr.gate_candidates(8)
        assert len(victims) == 8
        for v in victims:
            mgr.power_gate(v)
        assert len(topo.active_nodes) == 64 - 8
        assert mgr.validate_connectivity()
        _total, _fallback = _all_pairs_deliver(topo, routing)
        for v in victims:
            mgr.power_on(v)
        assert len(topo.active_nodes) == 64
        assert set(topo.active_links()) == baseline_links
        assert topo.active_shortcuts == set()
        total, fallback = _all_pairs_deliver(topo, routing)
        assert fallback == 0

    def test_shortcut_patching_on_gate(self, system):
        """Gating a cleanly-gateable node activates a bridging wire or
        relies on an existing base link across the gap."""
        topo, routing, mgr = system
        for victim in mgr.gate_candidates(4):
            pred, succ = mgr._active_ring_neighbors(victim)
            mgr.power_gate(victim)
            new_pred, new_succ = pred, succ
            # After gating, pred's active clockwise ring successor must
            # be reachable in one hop (patched ring invariant).
            assert new_succ in topo.neighbors(new_pred) or topo.direction.value == "uni"

    def test_events_recorded(self, system):
        topo, routing, mgr = system
        victim = mgr.gate_candidates(1)[0]
        (event,) = mgr.power_gate(victim)
        assert event.links_disabled
        assert event.tables_updated
        assert mgr.events[-1] is event

    def test_cannot_gate_below_two_nodes(self):
        topo = StringFigureTopology(3, 4, seed=0)
        routing = GreediestRouting(topo)
        mgr = ReconfigurationManager(topo, routing)
        victims = [v for v in range(3) if mgr.cleanly_gateable(v)]
        if victims:
            mgr.power_gate(victims[0])
        with pytest.raises(ValueError):
            for v in topo.active_nodes:
                mgr.power_gate(v)


class TestVictimSelection:
    def test_candidates_are_spaced(self, system):
        topo, _routing, mgr = system
        victims = mgr.gate_candidates(10, min_spacing=3)
        positions = sorted(topo.coords.ring_position(v, 0) for v in victims)
        n = topo.num_nodes
        for a, b in zip(positions, positions[1:]):
            assert b - a >= 3
        # wraparound spacing
        if len(positions) > 1:
            assert positions[0] + n - positions[-1] >= 3

    def test_candidates_are_gateable(self, system):
        _topo, _routing, mgr = system
        for v in mgr.gate_candidates(10):
            assert mgr.cleanly_gateable(v)

    def test_inactive_not_gateable(self, system):
        _topo, _routing, mgr = system
        victim = mgr.gate_candidates(1)[0]
        mgr.power_gate(victim)
        assert not mgr.cleanly_gateable(victim)


class TestStaticReconfiguration:
    def test_unmount_mount_cycle(self, system):
        """Design reuse: deploy a subset, expand later (paper §III-C)."""
        topo, routing, mgr = system
        reserved = mgr.gate_candidates(6)
        for node in reserved:
            (event,) = mgr.unmount(node)
            assert event.kind == "unmount"
        assert len(topo.active_nodes) == 58
        assert mgr.validate_connectivity()
        _all_pairs_deliver(topo, routing)
        for node in reserved:
            (event,) = mgr.mount(node)
            assert event.kind == "mount"
        assert len(topo.active_nodes) == 64
        _total, fallback = _all_pairs_deliver(topo, routing)
        assert fallback == 0

    def test_unmount_active_only(self, system):
        _topo, _routing, mgr = system
        victim = mgr.gate_candidates(1)[0]
        mgr.unmount(victim)
        with pytest.raises(ValueError):
            mgr.unmount(victim)

    def test_mount_mounted_raises(self, system):
        _topo, _routing, mgr = system
        with pytest.raises(ValueError):
            mgr.mount(0)


class TestTableConsistencyAfterReconfig:
    def test_no_gated_nodes_in_tables(self, system):
        topo, routing, mgr = system
        victims = mgr.gate_candidates(5)
        for v in victims:
            mgr.power_gate(v)
        gated = set(victims)
        for node in topo.active_nodes:
            table = routing.tables[node]
            for entry in table.one_hop() + table.two_hop():
                assert entry.node not in gated
                assert not (entry.vias & gated)

    def test_tables_unblocked_after_reconfig(self, system):
        topo, routing, mgr = system
        victim = mgr.gate_candidates(1)[0]
        mgr.power_gate(victim)
        for node in topo.active_nodes:
            for entry in routing.tables[node].entries():
                assert not entry.blocked

    def test_gated_node_has_no_table(self, system):
        topo, routing, mgr = system
        victim = mgr.gate_candidates(1)[0]
        mgr.power_gate(victim)
        assert victim not in routing.tables


class TestConnectivityValidation:
    def test_intact_network_connected(self, system):
        _topo, _routing, mgr = system
        assert mgr.validate_connectivity()

    def test_heavy_gating_stays_connected(self, system):
        topo, routing, mgr = system
        victims = mgr.gate_candidates(12)
        for v in victims:
            mgr.power_gate(v)
            assert mgr.validate_connectivity()

    def test_graph_matches_active_view(self, system):
        topo, _routing, mgr = system
        victims = mgr.gate_candidates(4)
        for v in victims:
            mgr.power_gate(v)
        g = topo.graph()
        assert set(g.nodes()) == set(topo.active_nodes)
        assert nx.is_connected(g)
