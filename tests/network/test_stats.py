"""Statistics accumulators and energy accounting."""

from __future__ import annotations

import pytest

from repro.network.stats import LatencyAccumulator, SimStats


class TestLatencyAccumulator:
    def test_empty(self):
        acc = LatencyAccumulator()
        assert acc.mean == 0.0
        assert acc.std == 0.0
        assert acc.percentile(50) == 0.0

    def test_mean_and_max(self):
        acc = LatencyAccumulator()
        for v in (10, 20, 30):
            acc.add(v)
        assert acc.mean == 20
        assert acc.maximum == 30
        assert acc.count == 3

    def test_std(self):
        acc = LatencyAccumulator()
        for v in (10, 10, 10):
            acc.add(v)
        assert acc.std == 0.0
        acc.add(50)
        assert acc.std > 0

    def test_percentiles(self):
        acc = LatencyAccumulator()
        for v in range(101):
            acc.add(v)
        assert acc.percentile(0) == 0
        assert acc.percentile(50) == 50
        assert acc.percentile(100) == 100


class TestSimStats:
    def test_accepted_rate(self):
        stats = SimStats()
        assert stats.accepted_rate == 1.0
        stats.injected = 10
        stats.measured_delivered = 5
        assert stats.accepted_rate == 0.5

    def test_energy_math(self):
        stats = SimStats()
        stats.bit_hops = 1000
        stats.dram_bits = 512
        assert stats.network_energy_pj(5.0) == 5000
        assert stats.dram_energy_pj(12.0) == 6144

    def test_throughput(self):
        stats = SimStats()
        stats.measure_cycles = 100
        stats.num_nodes = 10
        stats.flit_delivered = 500
        assert stats.throughput_flits_per_node_cycle == pytest.approx(0.5)

    def test_queue_occupancy(self):
        stats = SimStats()
        assert stats.avg_queue_occupancy == 0.0
        stats.queue_samples = 4
        stats.queue_total = 8.0
        assert stats.avg_queue_occupancy == 2.0

    def test_summary_keys(self):
        summary = SimStats().summary()
        for key in ("avg_latency", "avg_hops", "accepted_rate", "fallback_hops"):
            assert key in summary
