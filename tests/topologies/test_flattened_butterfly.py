"""FB/AFB baselines."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.topologies.flattened_butterfly import (
    AdaptedFlattenedButterflyTopology,
    FlattenedButterflyTopology,
)


class TestFB:
    def test_diameter_two(self):
        """Any pair is reachable within a row move plus a column move."""
        fb = FlattenedButterflyTopology(64)
        lengths = dict(nx.all_pairs_shortest_path_length(fb.graph()))
        assert max(max(d.values()) for d in lengths.values()) <= 2

    def test_radix_grows_with_scale(self):
        """Table II: FB requires high-radix routers that scale with N."""
        assert FlattenedButterflyTopology.radix_scales_with_n is True
        r64 = FlattenedButterflyTopology(64).radix
        r256 = FlattenedButterflyTopology(256).radix
        assert r256 > r64

    def test_radix_formula(self):
        fb = FlattenedButterflyTopology(64)  # 8x8
        assert fb.radix == 7 + 7

    def test_connected(self):
        for n in (16, 64, 144):
            assert nx.is_connected(FlattenedButterflyTopology(n).graph())

    def test_prime_unsupported(self):
        with pytest.raises(ValueError, match="^flattened butterfly does not support 61 nodes"):
            FlattenedButterflyTopology(61)

    def test_minimal_routing_two_hops_max(self):
        fb = FlattenedButterflyTopology(36)
        policy = fb.make_policy(adaptive=False)
        for src in range(36):
            for dst in range(36):
                if src != dst:
                    assert policy.route_length(src, dst) <= 2


class TestAFB:
    def test_lower_radix_than_fb(self):
        """AFB trades links for radix (bisection matching)."""
        fb = FlattenedButterflyTopology(256)
        afb = AdaptedFlattenedButterflyTopology(256)
        assert afb.radix < fb.radix

    def test_connected(self):
        for n in (64, 144, 256):
            assert nx.is_connected(AdaptedFlattenedButterflyTopology(n).graph())

    def test_fewer_edges_than_fb(self):
        fb = FlattenedButterflyTopology(256)
        afb = AdaptedFlattenedButterflyTopology(256)
        assert afb.graph().number_of_edges() < fb.graph().number_of_edges()

    def test_paths_still_short(self):
        afb = AdaptedFlattenedButterflyTopology(64)
        lengths = dict(nx.all_pairs_shortest_path_length(afb.graph()))
        mean = sum(
            d for row in lengths.values() for d in row.values()
        ) / (64 * 64)
        assert mean < 3.5

    def test_invalid_segment(self):
        with pytest.raises(ValueError):
            AdaptedFlattenedButterflyTopology(64, segment=1)

    def test_custom_segment_changes_radix(self):
        small = AdaptedFlattenedButterflyTopology(256, segment=2)
        large = AdaptedFlattenedButterflyTopology(256, segment=8)
        assert small.radix < large.radix
