"""DM/ODM mesh baselines."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.topologies.base import grid_dimensions
from repro.topologies.mesh import MeshTopology, OptimizedMeshTopology


class TestDimensions:
    def test_square(self):
        assert grid_dimensions(64, "mesh") == (8, 8)
        assert grid_dimensions(1296, "mesh") == (36, 36)

    def test_rectangular(self):
        assert grid_dimensions(128, "mesh") == (8, 16)

    def test_prime_unsupported(self):
        """Figure 8 marks 17, 61, 113 as unsupported ("N") for mesh."""
        for n in (17, 61, 113):
            with pytest.raises(ValueError, match=f"^mesh does not support {n} nodes"):
                MeshTopology(n)


class TestStructure:
    def test_grid_edges(self):
        mesh = MeshTopology(16)
        g = mesh.graph()
        # 4x4 grid: 2 * 4 * 3 = 24 edges.
        assert g.number_of_edges() == 24
        assert nx.is_connected(g)

    def test_radix_at_most_four(self):
        for n in (16, 64, 128):
            assert MeshTopology(n).radix <= 4

    def test_coordinates_roundtrip(self):
        mesh = MeshTopology(64)
        for node in range(64):
            r, c = mesh.coordinates_of(node)
            assert mesh.node_at(r, c) == node

    def test_not_reconfigurable(self):
        assert MeshTopology.reconfigurable is False


class TestXYRouting:
    def test_route_length_is_manhattan(self):
        mesh = MeshTopology(36)
        policy = mesh.make_policy(adaptive=False)
        for src in range(36):
            for dst in range(36):
                if src == dst:
                    continue
                sr, sc = mesh.coordinates_of(src)
                dr, dc = mesh.coordinates_of(dst)
                assert policy.route_length(src, dst) == abs(sr - dr) + abs(sc - dc)

    def test_xy_primary_moves_x_first(self):
        mesh = MeshTopology(36)
        policy = mesh.make_policy(adaptive=False)
        src = mesh.node_at(0, 0)
        dst = mesh.node_at(3, 3)
        first = policy.candidates(src, dst)[0]
        assert first == mesh.node_at(0, 1)  # X move before Y move

    def test_average_hops_analytic_close_to_measured(self):
        mesh = MeshTopology(64)
        policy = mesh.make_policy(adaptive=False)
        total = count = 0
        for src in range(64):
            for dst in range(64):
                if src != dst:
                    total += policy.route_length(src, dst)
                    count += 1
        measured = total / count
        # Analytic mean includes src==dst pairs; allow a small margin.
        assert measured == pytest.approx(
            mesh.average_hops_analytic(), rel=0.05
        )

    def test_hop_growth_with_scale(self):
        """Mesh path length grows ~sqrt(N) — the scalability failure."""
        small = MeshTopology(16).average_hops_analytic()
        large = MeshTopology(256).average_hops_analytic()
        assert large > 3 * small


class TestODM:
    def test_channels_default(self):
        odm = OptimizedMeshTopology(64)
        assert odm.link_channels(0, 1) == 2

    def test_channels_custom(self):
        odm = OptimizedMeshTopology(64, channels=4)
        assert odm.link_channels(5, 6) == 4

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            OptimizedMeshTopology(64, channels=0)

    def test_same_topology_as_dm(self):
        dm = MeshTopology(64)
        odm = OptimizedMeshTopology(64)
        assert set(dm.graph().edges()) == set(odm.graph().edges())
