"""Fast-path equivalence: SimStats must match the pre-fast-path code.

``golden_simstats.json`` was recorded with the original (tuple-keyed,
heap-scanning, uncached-candidate) simulator implementation at the
commit before the fast path landed.  Every entry must reproduce
bit-identically — counters exactly, float accumulators to strict
tolerance — so the optimization can never silently change results.

The grid covers greedy adaptive (SF, both port regimes), greedy table
(S2), XY mesh + minimal adaptive (DM/ODM, multi-channel links),
flattened butterfly, Jellyfish k-shortest-path, congestion with
deadlock recovery, and three traffic patterns.
"""

from __future__ import annotations

import json

import pytest

from tests.network.golden_grid import (
    FIXTURE,
    GRID,
    assert_stats_match,
    entry_key,
    run_point,
    stats_digest,
)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_grid(golden):
    assert set(golden) == {
        entry_key(design, nodes, pattern, rate, seed)
        for design, nodes, pattern, rate, seed, _cfg in GRID
    }


@pytest.mark.slow
@pytest.mark.parametrize(
    "design,nodes,pattern,rate,seed,cfg",
    GRID,
    ids=[entry_key(*entry[:5]) for entry in GRID],
)
def test_simstats_match_golden(golden, design, nodes, pattern, rate, seed, cfg):
    stats = run_point(design, nodes, pattern, rate, seed, cfg)
    expected = golden[entry_key(design, nodes, pattern, rate, seed)]
    assert_stats_match(stats_digest(stats), expected)


@pytest.mark.parametrize(
    "design,nodes,pattern,rate,seed,cfg",
    [GRID[0], GRID[3]],
    ids=[entry_key(*GRID[0][:5]), entry_key(*GRID[3][:5])],
)
def test_sample_free_mode_matches_sampled(design, nodes, pattern, rate, seed, cfg):
    """The opt-in quantile-sketch mode changes memory use, not results."""
    from repro.network.config import NetworkConfig
    from repro.topologies.registry import make_policy, make_topology
    from repro.traffic.injection import run_synthetic
    from repro.traffic.patterns import make_pattern

    def run(sample_free: bool):
        topo = make_topology(design, nodes, seed=0)
        policy = make_policy(topo)
        pattern_obj = make_pattern(pattern, topo.active_nodes)
        config = NetworkConfig(**cfg) if cfg else None
        return run_synthetic(
            topo, policy, pattern_obj, rate, config=config,
            warmup=100, measure=300, drain_limit=20_000, seed=seed,
            sample_free=sample_free,
        )

    sampled, sketched = run(False), run(True)
    assert sketched.latency.samples == []
    # Percentile digest fields are sample-derived; compare everything
    # else exactly, then the percentiles through the accumulator API.
    digest_a, digest_b = stats_digest(sampled), stats_digest(sketched)
    for digest in (digest_a, digest_b):
        for field in list(digest):
            if "_p5" in field or "_p9" in field:
                del digest[field]
    assert digest_a == digest_b
    for q in (50, 90, 95, 99, 100):
        assert sketched.latency.percentile(q) == sampled.latency.percentile(q)
        assert sketched.hops.percentile(q) == sampled.hops.percentile(q)
