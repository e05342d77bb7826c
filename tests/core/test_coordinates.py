"""Unit and property tests for circular distances and coordinates."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coordinates import (
    CoordinateSystem,
    balanced_coordinate,
    circular_distance,
    clockwise_distance,
    min_circular_distance,
    min_clockwise_distance,
    quantize_coordinate,
)

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


class TestCircularDistance:
    def test_zero_for_identical(self):
        assert circular_distance(0.3, 0.3) == 0.0

    def test_wraps_around(self):
        assert circular_distance(0.95, 0.05) == pytest.approx(0.1)

    def test_half_is_max(self):
        assert circular_distance(0.0, 0.5) == pytest.approx(0.5)

    def test_simple(self):
        assert circular_distance(0.2, 0.6) == pytest.approx(0.4)

    @given(unit, unit)
    def test_symmetric(self, u, v):
        assert circular_distance(u, v) == pytest.approx(circular_distance(v, u))

    @given(unit, unit)
    def test_bounded(self, u, v):
        d = circular_distance(u, v)
        assert 0.0 <= d <= 0.5

    @given(unit, unit, unit)
    def test_triangle_inequality(self, u, v, w):
        assert circular_distance(u, w) <= (
            circular_distance(u, v) + circular_distance(v, w) + 1e-12
        )

    @given(unit, unit)
    def test_matches_clockwise_min(self, u, v):
        d = circular_distance(u, v)
        assert d == pytest.approx(
            min(clockwise_distance(u, v), clockwise_distance(v, u)), abs=1e-12
        )


class TestClockwiseDistance:
    def test_forward(self):
        assert clockwise_distance(0.2, 0.7) == pytest.approx(0.5)

    def test_wraps(self):
        assert clockwise_distance(0.7, 0.2) == pytest.approx(0.5)

    def test_zero(self):
        assert clockwise_distance(0.4, 0.4) == 0.0

    @given(unit, unit)
    def test_in_range(self, u, v):
        assert 0.0 <= clockwise_distance(u, v) < 1.0

    @given(unit, unit)
    def test_antisymmetric_sum(self, u, v):
        if u != v:
            total = clockwise_distance(u, v) + clockwise_distance(v, u)
            assert total == pytest.approx(1.0)


class TestMinDistances:
    def test_min_over_spaces(self):
        assert min_circular_distance((0.1, 0.9), (0.2, 0.5)) == pytest.approx(0.1)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            min_circular_distance((0.1,), (0.2, 0.3))

    def test_clockwise_mismatch_raises(self):
        with pytest.raises(ValueError):
            min_clockwise_distance((0.1,), (0.2, 0.3))

    @given(st.lists(unit, min_size=1, max_size=4), st.data())
    def test_min_circular_bounded_by_each_space(self, coords_u, data):
        coords_v = data.draw(st.lists(unit, min_size=len(coords_u), max_size=len(coords_u)))
        md = min_circular_distance(coords_u, coords_v)
        for u, v in zip(coords_u, coords_v):
            assert md <= circular_distance(u, v) + 1e-12


class TestQuantization:
    def test_seven_bit_grid(self):
        q = quantize_coordinate(0.5, 7)
        assert q == pytest.approx(64 / 128)

    def test_stays_in_unit_interval(self):
        assert 0.0 <= quantize_coordinate(0.9999, 7) < 1.0

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            quantize_coordinate(0.5, 0)

    @given(unit, st.integers(min_value=1, max_value=16))
    def test_error_bounded_by_half_step(self, coord, bits):
        q = quantize_coordinate(coord, bits)
        step = 1.0 / (1 << bits)
        assert circular_distance(coord, q) <= step / 2 + 1e-12


class TestBalancedCoordinate:
    def test_first_draw_uniform(self):
        rng = random.Random(0)
        c = balanced_coordinate([], rng, candidates=4)
        assert 0.0 <= c < 1.0

    def test_invalid_candidates(self):
        with pytest.raises(ValueError):
            balanced_coordinate([], random.Random(0), candidates=0)

    def test_picks_larger_gap(self):
        # With many candidates, the draw should land far from 0.0.
        rng = random.Random(1)
        c = balanced_coordinate([0.0], rng, candidates=64)
        assert circular_distance(c, 0.0) > 0.2

    def test_balance_improves_with_candidates(self):
        """Best-of-k sampling yields measurably more even rings."""
        plain = CoordinateSystem(200, 1, seed=3, candidates=1)
        balanced = CoordinateSystem(200, 1, seed=3, candidates=8)
        assert balanced.balance_score(0) > plain.balance_score(0)


#: Multiples of 1/64: exact in binary, so equal gaps compare equal.
grid = st.integers(min_value=0, max_value=63).map(lambda k: k / 64)


class _ScriptedRng:
    """Stands in for ``random.Random``: ``random()`` replays *draws*."""

    def __init__(self, draws: list[float]) -> None:
        self._draws = iter(draws)

    def random(self) -> float:
        return next(self._draws)


class TestBalancedDrawDifferential:
    """``_balanced_draw`` on a sorted copy equals the O(n) reference."""

    @given(
        existing=st.lists(st.one_of(unit, grid), max_size=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        candidates=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_sets_and_seeds(self, existing, seed, candidates):
        fast_rng, ref_rng = random.Random(seed), random.Random(seed)
        fast = CoordinateSystem._balanced_draw(sorted(existing), fast_rng, candidates)
        ref = balanced_coordinate(existing, ref_rng, candidates)
        assert fast.hex() == ref.hex()
        assert fast_rng.getstate() == ref_rng.getstate()

    @given(
        existing=st.lists(grid, min_size=1, max_size=12),
        draws=st.lists(grid, min_size=16, max_size=16),
        candidates=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=300, deadline=None)
    def test_grid_draws_with_ties(self, existing, draws, candidates):
        """Grid candidates hit existing points, midpoints and equal gaps."""
        fast = CoordinateSystem._balanced_draw(sorted(existing), _ScriptedRng(draws), candidates)
        ref = balanced_coordinate(existing, _ScriptedRng(draws), candidates)
        assert fast.hex() == ref.hex()

    @pytest.mark.parametrize(
        "existing, draws",
        [
            # Candidate above every point: its nearest is 0.05, past the wrap.
            ([0.05, 0.5, 0.9], [0.99, 0.93]),
            # Candidate below every point: its nearest is 0.9, past the wrap.
            ([0.15, 0.5, 0.9], [0.02, 0.45]),
            # Two candidates with the same gap: the first one wins.
            ([0.0, 0.5], [0.25, 0.75]),
        ],
    )
    def test_wraparound_and_tied_examples(self, existing, draws):
        fast = CoordinateSystem._balanced_draw(sorted(existing), _ScriptedRng(draws), len(draws))
        ref = balanced_coordinate(existing, _ScriptedRng(draws), len(draws))
        assert fast == ref == draws[0]


class TestCoordinateSystem:
    def test_dimensions(self):
        cs = CoordinateSystem(10, 3, seed=0)
        assert len(cs.vector(0)) == 3
        assert cs.num_nodes == 10

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            CoordinateSystem(0, 1)
        with pytest.raises(ValueError):
            CoordinateSystem(4, 0)

    def test_deterministic(self):
        a = CoordinateSystem(20, 2, seed=11)
        b = CoordinateSystem(20, 2, seed=11)
        assert all(a.vector(v) == b.vector(v) for v in range(20))

    def test_seeds_differ(self):
        a = CoordinateSystem(20, 2, seed=1)
        b = CoordinateSystem(20, 2, seed=2)
        assert any(a.vector(v) != b.vector(v) for v in range(20))

    def test_adding_space_preserves_existing(self):
        """Space streams are independent: space 0 is stable under L."""
        two = CoordinateSystem(15, 2, seed=9)
        four = CoordinateSystem(15, 4, seed=9)
        for v in range(15):
            assert two.coordinate(v, 0) == four.coordinate(v, 0)
            assert two.coordinate(v, 1) == four.coordinate(v, 1)

    def test_ring_is_permutation(self):
        cs = CoordinateSystem(17, 2, seed=4)
        for space in range(2):
            assert sorted(cs.ring(space)) == list(range(17))

    def test_ring_sorted_by_coordinate(self):
        cs = CoordinateSystem(17, 2, seed=4)
        ring = cs.ring(0)
        coords = [cs.coordinate(v, 0) for v in ring]
        assert coords == sorted(coords)

    def test_ring_position_roundtrip(self):
        cs = CoordinateSystem(17, 2, seed=4)
        for v in range(17):
            assert cs.ring(0)[cs.ring_position(v, 0)] == v

    def test_successor_predecessor_inverse(self):
        cs = CoordinateSystem(17, 2, seed=4)
        for space in range(2):
            for v in range(17):
                assert cs.predecessor(cs.successor(v, space), space) == v

    def test_ring_neighbor_wraps(self):
        cs = CoordinateSystem(5, 1, seed=0)
        ring = cs.ring(0)
        assert cs.ring_neighbor(ring[-1], 0, 1) == ring[0]

    def test_md_symmetry(self):
        cs = CoordinateSystem(12, 2, seed=6)
        for a in range(12):
            for b in range(12):
                assert cs.md(a, b) == pytest.approx(cs.md(b, a))

    def test_md_zero_iff_same_node_without_quantization(self):
        cs = CoordinateSystem(12, 2, seed=6)
        for a in range(12):
            assert cs.md(a, a) == 0.0
            for b in range(12):
                if a != b:
                    assert cs.md(a, b) > 0.0

    def test_quantized_coordinates_on_grid(self):
        cs = CoordinateSystem(20, 2, seed=8, coord_bits=7)
        for v in range(20):
            for c in cs.vector(v):
                assert math.isclose(c * 128, round(c * 128), abs_tol=1e-9)

    def test_quantized_unique_when_room(self):
        cs = CoordinateSystem(20, 1, seed=8, coord_bits=7)
        coords = [cs.coordinate(v, 0) for v in range(20)]
        assert len(set(coords)) == 20

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_construction_invariants_hold(self, n, spaces, seed):
        cs = CoordinateSystem(n, spaces, seed=seed)
        for space in range(spaces):
            assert sorted(cs.ring(space)) == list(range(n))
            for v in range(n):
                assert 0.0 <= cs.coordinate(v, space) < 1.0
