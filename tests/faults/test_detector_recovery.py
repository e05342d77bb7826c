"""Detection, repair, and recovery — unit and regression tests."""

from __future__ import annotations

import pytest

from repro.core.routing import AdaptiveGreediestRouting
from repro.faults.detector import FaultDetector, GraphRepair, TableRepair
from repro.faults.injector import FaultRecord
from repro.faults.layer import FaultLayer
from repro.memory.migration import PageDirectory
from repro.network.policies import GreedyPolicy
from repro.network.simulator import NetworkSimulator
from repro.topologies.registry import make_topology
from tests.core.routing_oracle import oracle_tables


def sf_stack(n=32):
    topo = make_topology("SF", n, seed=0)
    routing = AdaptiveGreediestRouting(topo)
    policy = GreedyPolicy(routing)
    sim = NetworkSimulator(topo, policy)
    layer = FaultLayer(sim)
    return topo, routing, policy, sim, layer


class TestTableRepair:
    def test_blocks_both_endpoints(self):
        topo, routing, policy, sim, layer = sf_stack()
        u = topo.active_nodes[0]
        v = topo.neighbors(u)[0]
        repair = TableRepair(routing)
        repair.route_around_link(u, v)
        assert not routing.is_direct(u, v)
        assert not routing.is_direct(v, u)

    def test_prunes_stale_two_hop_vias(self):
        """Regression: the 8<->41 commit livelock.

        After link (u, v) dies, a neighbor r of u that lists v as a
        two-hop target via u must lose that via — otherwise r keeps
        committing packets to a hop u cannot honor and the pair cycles
        forever.
        """
        topo, routing, policy, sim, layer = sf_stack()
        u = topo.active_nodes[0]
        v = topo.neighbors(u)[0]
        stale = [
            r for r, table in oracle_tables(topo, (), ()).items()
            if r not in (u, v)
            and (entry := table._entries.get(v)) is not None
            and entry.hop == 2
            and u in entry.vias
        ]
        assert stale, "need at least one r -- u -- v chain to test"
        repair = TableRepair(routing)
        repair.route_around_link(u, v)
        for r in stale:
            window = routing.window(r)
            one_hop = [w for w, hop, _vias in window if hop == 1]
            for w, _hop, vias in window:
                if w == v:
                    assert u not in [one_hop[i] for i in vias]
                    assert vias

    def test_restore_rebuilds_and_reimposes_other_failures(self):
        topo, routing, policy, sim, layer = sf_stack()
        u = topo.active_nodes[0]
        nbrs = topo.neighbors(u)
        v, w = nbrs[0], nbrs[1]
        repair = TableRepair(routing)
        repair.route_around_link(u, v)
        repair.route_around_link(u, w)
        repair.restore_link(u, v)
        # (u, v) healthy again; (u, w) must still be down even though
        # the restore rebuilt u's whole neighborhood from the topology.
        assert routing.is_direct(u, v)
        assert not routing.is_direct(u, w)
        assert (min(u, w), max(u, w)) in repair.failed_links
        assert (min(u, v), max(u, v)) not in repair.failed_links

    def test_version_bump_invalidates_policy_caches(self):
        topo, routing, policy, sim, layer = sf_stack()
        u = topo.active_nodes[0]
        v = topo.neighbors(u)[0]
        before = routing.version
        TableRepair(routing).route_around_link(u, v)
        assert routing.version > before


class TestGraphRepair:
    def test_link_removal_rebuilds_policy(self):
        topo = make_topology("DM", 36, seed=0)
        policy = topo.make_policy(adaptive=True)
        sim = NetworkSimulator(topo, policy)
        layer = FaultLayer(sim)
        repair = GraphRepair(sim, topo, layer)
        old_policy = sim.policy
        repair.route_around_link(0, 1)
        assert sim.policy is not old_policy
        assert repair.rebuilds == 1
        assert not topo.graph().has_edge(0, 1)
        # New policy routes 0 -> 1 the long way (via the next row/col).
        assert sim.policy.route_length(0, 1) > 1

    def test_disconnection_strands_minority_component(self):
        import networkx as nx

        topo = make_topology("DM", 36, seed=0)
        policy = topo.make_policy(adaptive=True)
        sim = NetworkSimulator(topo, policy)
        layer = FaultLayer(sim)
        repair = GraphRepair(sim, topo, layer)
        # Cut the corner node 0 off completely (it has 2 mesh links).
        graph = topo.graph()
        for w in list(graph.neighbors(0)):
            graph.remove_edge(0, w)
        repair._rebuild()
        assert not nx.is_connected(graph)
        assert 0 in repair.stranded
        assert 0 in layer.dead


class TestDetectorTimeline:
    def test_detection_lags_by_timeout(self):
        topo, routing, policy, sim, layer = sf_stack()
        repair = TableRepair(routing)
        detector = FaultDetector(
            sim, layer, repair, detection_timeout=150
        )
        u = topo.active_nodes[0]
        v = topo.neighbors(u)[0]
        record = FaultRecord(kind="link_down", t_fault=0, link=(u, v))
        layer.fail_link_pair(u, v)
        detector.notice(record)
        assert routing.is_direct(u, v)  # not yet detected
        sim.run(until=149)
        assert record.t_detected is None
        sim.run(until=151)
        assert record.t_detected == 150
        assert record.t_repaired == 150
        assert not routing.is_direct(u, v)

    def test_flap_restored_while_endpoint_hung_is_absorbed(self):
        """Regression: the failure registry, not the freeze bit, is the
        detector's truth.

        A flap that physically restores while its endpoint is hung
        leaves the wire frozen (the hang owns the freeze); the
        detector must still rule the flap absorbed, or the healthy
        wire would be blocked in the tables with nothing ever
        unblocking it.
        """
        topo, routing, policy, sim, layer = sf_stack()
        u = topo.active_nodes[0]
        v = topo.neighbors(u)[0]
        repair = TableRepair(routing)
        detector = FaultDetector(sim, layer, repair, detection_timeout=400)
        record = FaultRecord(kind="link_flap", t_fault=0, link=(u, v), duration=300)
        layer.fail_link_pair(u, v)
        detector.notice(record)
        neighbors = list(topo.neighbors(u))
        sim.schedule(100, lambda now: layer.hang_node(u, neighbors))
        sim.schedule(300, lambda now: (
            layer.restore_link_pair(u, v),
            detector.link_restored(record),
        ))
        sim.run(until=500)
        assert record.absorbed
        assert (min(u, v), max(u, v)) not in repair.failed_links
        assert sim.link_frozen(u, v)  # hang still owns the transmitter
        layer.resume_node(u, neighbors)
        assert not sim.link_frozen(u, v)
        assert routing.is_direct(u, v)  # never blacklisted

    def test_fast_flap_is_absorbed(self):
        topo, routing, policy, sim, layer = sf_stack()
        repair = TableRepair(routing)
        detector = FaultDetector(sim, layer, repair, detection_timeout=200)
        u = topo.active_nodes[0]
        v = topo.neighbors(u)[0]
        record = FaultRecord(kind="link_flap", t_fault=0, link=(u, v), duration=50)
        layer.fail_link_pair(u, v)
        detector.notice(record)
        sim.schedule(50, lambda now: (
            layer.restore_link_pair(u, v),
            detector.link_restored(record),
        ))
        sim.run(until=300)
        assert record.absorbed
        assert detector.absorbed_flaps == 1
        assert routing.is_direct(u, v)  # never blocked


class TestPageDirectoryFaults:
    def test_drop_page_accounting_and_rulings(self):
        directory = PageDirectory()
        from repro.memory.address import AddressMapper

        mapper = AddressMapper([0, 1, 2, 3], interleave_bytes=4096)
        directory.populate(mapper, 8)
        assert directory.check_conservation()
        victim_pages = directory.resident_on(1)
        for page in victim_pages:
            directory.drop_page(page)
        assert directory.lost == victim_pages
        assert directory.check_conservation()
        ruling, target = directory.arrival_ruling(0, victim_pages[0])
        assert ruling == "lost" and target == -1
        with pytest.raises(ValueError):
            directory.drop_page(victim_pages[0])  # already gone

    def test_drop_page_refuses_in_flight(self):
        directory = PageDirectory()
        from repro.memory.address import AddressMapper

        mapper = AddressMapper([0, 1], interleave_bytes=4096)
        directory.populate(mapper, 2)
        directory.begin_move(0, 0, 1)
        with pytest.raises(RuntimeError):
            directory.drop_page(0)


class TestCrashRecoveryEndToEnd:
    def _run(self, mirrored: bool):
        from repro.workloads.faults import run_faults

        topo = make_topology("SF", 32, seed=0)
        return run_faults(
            topo, rate=0.08, schedule="crash", footprint_pages=32,
            mirrored=mirrored, warmup=200, measure=2500, seed=0,
        )

    def test_mirrored_crash_loses_nothing(self):
        result = self._run(mirrored=True)
        payload = result.payload()
        assert payload["num_faults"] == 1
        assert payload["pages_lost"] == 0
        assert payload["pages_recovered"] >= 1
        assert payload["recoveries_done"]
        assert payload["page_residency_ok"]
        assert payload["conserved"]
        # The crashed node left the topology: ring patched, tables gone.
        node = result.records[0].node
        assert not result.fault_injector.topology.is_active(node)

    def test_unmirrored_crash_loses_exactly_the_residents(self):
        result = self._run(mirrored=False)
        payload = result.payload()
        assert payload["pages_lost"] >= 1
        assert payload["pages_recovered"] == 0
        assert payload["page_conservation"]
        assert payload["page_residency_ok"]
        assert payload["conserved"]
        directory = result.directory
        node = result.records[0].node
        assert directory.resident_on(node) == []

    def test_recovery_timeline_is_ordered(self):
        result = self._run(mirrored=True)
        record = result.records[0]
        assert record.t_fault < record.t_detected
        assert record.t_detected <= record.t_repaired
        assert record.t_repaired <= record.t_recovered
        assert record.unreachable_node_cycles(result.run_end) == (
            record.t_recovered - record.t_fault
        )
