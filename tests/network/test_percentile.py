"""Nearest-rank percentile semantics and the streaming quantile sketch.

The old ``percentile()`` rounded the virtual index with builtin
``round`` (banker's rounding: ``round(0.5) == 0``), so the median of
two samples silently returned the *lower* one.  The fixed version
rounds half up.  ``numpy.percentile(..., method="nearest")`` is the
cross-check oracle: off exact .5 ties both must agree; at ties numpy
keeps banker's rounding, so the properties assert our result is the
upper of the two nearest order statistics instead.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network.stats import LatencyAccumulator, QuantileSketch, percentile

samples_strategy = st.lists(
    st.integers(min_value=0, max_value=5000), min_size=1, max_size=300
)
q_strategy = st.integers(min_value=0, max_value=100)


class TestRoundHalfUp:
    def test_median_of_two_is_upper(self):
        assert percentile([1.0, 2.0], 50) == 2.0

    def test_quartiles_of_two(self):
        assert percentile([1.0, 2.0], 49) == 1.0
        assert percentile([1.0, 2.0], 51) == 2.0

    def test_endpoints(self):
        data = [3.0, 1.0, 2.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 3.0

    def test_empty(self):
        assert percentile([], 50) == 0.0

    @given(samples_strategy, q_strategy)
    def test_matches_numpy_nearest_off_ties(self, samples, q):
        virtual = q / 100.0 * (len(samples) - 1)
        ours = percentile(samples, q)
        expected = float(np.percentile(samples, q, method="nearest"))
        if (virtual % 1.0) != 0.5:
            assert ours == expected
        else:
            # Exact tie: numpy rounds half-to-even, we round half up —
            # the result must be the upper of the two nearest order
            # statistics.
            data = sorted(samples)
            assert ours == float(data[int(virtual) + 1])

    @given(samples_strategy, q_strategy)
    def test_result_is_an_order_statistic_near_the_rank(self, samples, q):
        data = sorted(samples)
        virtual = q / 100.0 * (len(data) - 1)
        lo, hi = int(virtual), min(len(data) - 1, int(virtual) + 1)
        assert percentile(samples, q) in (float(data[lo]), float(data[hi]))


class TestQuantileSketch:
    @given(samples_strategy, q_strategy)
    def test_sketch_matches_sample_list(self, samples, q):
        sketch = QuantileSketch()
        for v in samples:
            sketch.add(v)
        assert sketch.percentile(q) == percentile(samples, q)

    def test_memory_scales_with_distinct_values(self):
        sketch = QuantileSketch()
        for i in range(100_000):
            sketch.add(i % 64)
        assert sketch.count == 100_000
        assert len(sketch.counts) == 64

    def test_empty(self):
        assert QuantileSketch().percentile(50) == 0.0


class TestSampleFreeAccumulator:
    @given(samples_strategy)
    def test_equivalent_to_sampled(self, samples):
        sampled = LatencyAccumulator()
        sketched = LatencyAccumulator.sample_free()
        for v in samples:
            sampled.add(v)
            sketched.add(v)
        assert sketched.samples == []
        assert sketched.count == sampled.count
        assert sketched.mean == sampled.mean
        assert sketched.std == sampled.std
        assert sketched.maximum == sampled.maximum
        for q in (0, 50, 95, 99, 100):
            assert sketched.percentile(q) == sampled.percentile(q)


def test_simstats_summary_uses_fixed_percentile():
    from repro.network.stats import SimStats

    stats = SimStats()
    stats.latency.add(10)
    stats.latency.add(20)
    assert stats.summary()["p95_latency"] == 20.0
    assert stats.latency.percentile(50) == 20.0  # round half up


def test_percentile_accepts_floats():
    assert percentile([1.5, 2.5, 3.5], 50) == 2.5
    with pytest.raises(TypeError):
        percentile([1.0, "x"], 50)  # mixed types fail loudly at sort
