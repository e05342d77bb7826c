"""Routing-table contents, capacity bound, and hardware accounting.

A router's table is its window row in ``GreediestRouting``: one-hop
entries, then two-hop entries with the one-hop vias they are reached
through.  Blocking is the routing's ``blocked`` set, a cleared valid
bit a failed wire; both are inputs the row is recomputed from.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import GreediestRouting
from repro.core.routing_table import entry_bits, max_entries, table_bits
from repro.core.topology import LinkDirection, StringFigureTopology
from repro.faults.detector import TableRepair


@pytest.fixture
def topo():
    return StringFigureTopology(30, 4, seed=11)


@pytest.fixture
def routing(topo):
    return GreediestRouting(topo)


def one_hop(routing, node):
    return [w for w, hop, _vias in routing.window(node) if hop == 1]


def two_hop(routing, node):
    """Router *node*'s two-hop entries as ``(entry, [via nodes])``."""
    first = one_hop(routing, node)
    return [
        (w, [first[i] for i in vias])
        for w, hop, vias in routing.window(node)
        if hop == 2
    ]


def reblock(routing, nodes):
    routing.rebuild(routing.routers_listing(nodes))


class TestBuild:
    def test_one_hop_matches_neighbors(self, topo, routing):
        assert one_hop(routing, 0) == topo.neighbors(0)

    def test_two_hop_are_neighbors_of_neighbors(self, topo, routing):
        first = set(topo.neighbors(0))
        entries = two_hop(routing, 0)
        assert entries
        for node, vias in entries:
            assert node not in first
            assert node != 0
            assert any(node in topo.neighbors(w) for w in vias)

    def test_vias_are_one_hop(self, topo, routing):
        first = set(topo.neighbors(0))
        for node, vias in two_hop(routing, 0):
            assert set(vias) <= first
            assert all(node in topo.neighbors(w) for w in vias)

    def test_one_hop_via_is_self(self, routing):
        for j, (_node, hop, vias) in enumerate(routing.window(0)):
            if hop == 1:
                assert vias == (j,)

    def test_coords_match_topology(self, topo, routing):
        row = routing._row(0)
        assert row.coords[0].tolist() == list(topo.coords.vector(0))
        for w, coords in zip(row.ids.tolist(), row.coords[1:].tolist()):
            assert coords == list(topo.coords.vector(w))

    def test_capacity_bound_all_nodes(self):
        """The p(p+1) bound holds at every router's window (paper
        §IV-B), on SF and UNI fabrics, also after random gate and wake
        batches."""
        pick = random.Random(3)
        for direction, ports in itertools.product(
            (LinkDirection.BI, LinkDirection.UNI), (4, 8)
        ):
            topo = StringFigureTopology(96, ports, seed=7, direction=direction)
            routing = GreediestRouting(topo)
            manager = ReconfigurationManager(topo, routing)
            bound = max_entries(ports)
            for _ in range(4):
                for v in topo.active_nodes:
                    assert len(routing.window(v)) <= bound, v
                candidates = manager.gate_candidates(8)
                manager.power_gate(*pick.sample(candidates, pick.randint(1, len(candidates))))
                gated = [v for v in range(96) if not topo.is_active(v)]
                manager.power_on(*pick.sample(gated, pick.randint(0, len(gated))))

    def test_lookup_missing_returns_none(self, routing):
        assert not routing.is_direct(0, 9999)
        assert all(w != 9999 for w, _hop, _vias in routing.window(0))

    def test_contains(self, topo, routing):
        assert topo.neighbors(0)[0] in routing.nbr_index[0]
        assert 9999 not in routing.nbr_index[0]


class TestReconfigPrimitives:
    def test_block_unblock(self, routing):
        node = one_hop(routing, 0)[0]
        routing.blocked.add(node)
        reblock(routing, [node])
        assert node not in [w for w, _hop, _vias in routing.window(0)]
        routing.blocked.discard(node)
        reblock(routing, [node])
        assert node in one_hop(routing, 0)

    def test_block_all(self, routing):
        fresh = routing.window(0)
        listed = [w for w, _hop, _vias in fresh]
        routing.blocked.update(listed)
        reblock(routing, listed)
        assert routing.window(0) == ()
        routing.blocked.clear()
        reblock(routing, listed)
        assert routing.window(0) == fresh

    def test_invalidate_validate(self, routing):
        node = one_hop(routing, 0)[0]
        repair = TableRepair(routing)
        repair.route_around_link(0, node)
        assert not routing.is_direct(0, node)
        assert node not in [w for w, _hop, _vias in routing.window(0)]
        repair.restore_link(0, node)
        assert routing.is_direct(0, node)

    def test_hop_flip(self):
        """Gating a node patches the ring with a shortcut: a two-hop
        neighbor across the gated node becomes one-hop (step 3's hop
        bit flip)."""
        topo = StringFigureTopology(64, 4, seed=3)
        routing = GreediestRouting(topo)
        manager = ReconfigurationManager(topo, routing)
        flips = 0
        for victim in manager.gate_candidates(4):
            before = {v: dict(two_hop(routing, v)) for v in topo.active_nodes}
            (event,) = manager.power_gate(victim)
            for a, b in event.shortcuts_activated:
                for x, y in ((a, b), (b, a)):
                    if y in before[x]:
                        assert y in one_hop(routing, x)
                        flips += 1
        assert flips

    def test_drop_via_invalidates_when_empty(self, routing):
        node, vias = two_hop(routing, 0)[0]
        repair = TableRepair(routing)
        for via in vias[:-1]:
            repair.route_around_link(via, node)
            assert node in dict(two_hop(routing, 0))
        repair.route_around_link(vias[-1], node)
        assert node not in [w for w, _hop, _vias in routing.window(0)]

    def test_block_missing_is_noop(self, topo, routing):
        manager = ReconfigurationManager(topo, routing)
        victim = manager.gate_candidates(1)[0]
        manager.power_gate(victim)
        windows = [routing.window(v) for v in range(topo.num_nodes)]
        routing.blocked.add(victim)
        routing.rebuild()
        assert [routing.window(v) for v in range(topo.num_nodes)] == windows


class TestHardwareAccounting:
    def test_entry_bits_formula(self):
        # 1296 nodes, 8 ports: 11 id + 3 flag + 2 space + 7 coord = 23.
        assert entry_bits(1296, 8) == 11 + 1 + 1 + 1 + 2 + 7

    def test_entry_bits_small(self):
        # 9 nodes, 4 ports: 4 id + 3 flags + 1 space + 7 coord = 15.
        assert entry_bits(9, 4) == 4 + 3 + 1 + 7

    def test_table_bits_sublinear_in_n(self):
        """Routing state grows only logarithmically with network size."""
        small = table_bits(128, 8)
        large = table_bits(1296, 8)
        assert large < small * 1.5

    def test_table_fits_on_chip(self):
        """Paper's working point: the full table is a few KB of SRAM."""
        bits = table_bits(1296, 8)
        assert bits / 8 / 1024 < 8  # under 8 KB
