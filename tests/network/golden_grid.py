"""Golden-stats grid: seed-fixed runs whose SimStats must never drift.

The fixture ``golden_simstats.json`` was recorded at the commit *before*
the simulator fast path landed, so the equivalence test proves the
optimized event loop produces bit-identical statistics to the original
implementation across a topology x policy grid (greedy adaptive, greedy
table, minimal, k-shortest-path, multi-channel links, deadlock
recovery).

A second, smaller grid pins the class-aware (QoS) arbitration path:
``golden_qos.json`` digests interference runs under the default class
table, plus one with two classes sharing a priority band — SimStats,
each class's latency samples and, where the latency anatomy rides
along, its per-class component totals.  It was recorded with the
simulator as it stood before the QoS arbiter was folded into the one
send loop.

Regenerate (only when simulation *semantics* intentionally change)::

    PYTHONPATH=src python tests/network/golden_grid.py --write
    PYTHONPATH=src python tests/network/golden_grid.py --write --qos
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FIXTURE = Path(__file__).parent / "golden_simstats.json"
QOS_FIXTURE = Path(__file__).parent / "golden_qos.json"

WARMUP, MEASURE, DRAIN = 100, 300, 20_000

#: (design, nodes, pattern, rate, seed, config overrides)
GRID: list[tuple[str, int, str, float, int, dict]] = [
    ("SF", 64, "uniform_random", 0.10, 0, {}),
    ("SF", 64, "uniform_random", 0.10, 1, {}),
    ("SF", 64, "tornado", 0.30, 0, {}),
    # Small buffers under load: exercises stall timers, reserve loans
    # and the escape-buffer deadlock recovery.
    ("SF", 64, "uniform_random", 0.45, 0,
     {"buffer_packets": 2, "deadlock_timeout_cycles": 16}),
    ("SF", 96, "hotspot", 0.15, 2, {}),
    # 8-port / 4-space regime (the >=256-node Figure 8 configuration).
    ("SF", 256, "uniform_random", 0.05, 0, {}),
    ("S2", 64, "uniform_random", 0.20, 0, {}),
    ("DM", 36, "uniform_random", 0.15, 0, {}),
    ("DM", 64, "complement", 0.30, 1, {}),
    ("ODM", 36, "uniform_random", 0.30, 0, {}),  # multi-channel links
    ("FB", 64, "uniform_random", 0.20, 0, {}),
    ("Jellyfish", 64, "uniform_random", 0.20, 0, {}),
]


def entry_key(design: str, nodes: int, pattern: str, rate: float, seed: int) -> str:
    return f"{design}/N{nodes}/{pattern}/r{rate:g}/s{seed}"


def run_point(design: str, nodes: int, pattern_name: str, rate: float,
              seed: int, config_overrides: dict):
    """One seed-fixed synthetic run of the grid (fresh everything)."""
    from repro.network.config import NetworkConfig
    from repro.topologies.registry import make_policy, make_topology
    from repro.traffic.injection import run_synthetic
    from repro.traffic.patterns import make_pattern

    topo = make_topology(design, nodes, seed=0)
    policy = make_policy(topo)
    pattern = make_pattern(pattern_name, topo.active_nodes)
    config = NetworkConfig(**config_overrides) if config_overrides else None
    return run_synthetic(
        topo, policy, pattern, rate, config=config,
        warmup=WARMUP, measure=MEASURE, drain_limit=DRAIN, seed=seed,
    )


def stats_digest(stats) -> dict:
    """Every SimStats field that must stay bit-identical.

    Percentiles use ``numpy.percentile(..., method="nearest")`` so the
    digest is independent of this repo's own nearest-rank rounding.
    """
    import numpy as np

    def pct(acc, q):
        samples = sorted(acc.samples) if acc.samples else []
        if not samples:
            return 0.0
        return float(np.percentile(samples, q, method="nearest"))

    return {
        "sent": stats.sent,
        "injected": stats.injected,
        "delivered": stats.delivered,
        "measured_delivered": stats.measured_delivered,
        "fallback_hops": stats.fallback_hops,
        "total_hops": stats.total_hops,
        "deadlock_recoveries": stats.deadlock_recoveries,
        "emergency_loans": stats.emergency_loans,
        "flit_hops": stats.flit_hops,
        "flit_delivered": stats.flit_delivered,
        "bit_hops": stats.bit_hops,
        "queue_samples": stats.queue_samples,
        "queue_total": stats.queue_total,
        "latency_count": stats.latency.count,
        "latency_total": stats.latency.total,
        "latency_total_sq": stats.latency.total_sq,
        "latency_max": stats.latency.maximum,
        "latency_p50": pct(stats.latency, 50),
        "latency_p95": pct(stats.latency, 95),
        "latency_p99": pct(stats.latency, 99),
        "hops_count": stats.hops.count,
        "hops_total": stats.hops.total,
        "hops_max": stats.hops.maximum,
    }


def assert_stats_match(digest: dict, expected: dict) -> None:
    """Counters must match exactly, float accumulators to 1e-12."""
    import pytest

    assert set(digest) == set(expected)
    for field, want in expected.items():
        got = digest[field]
        if isinstance(want, int):
            assert got == want, f"{field}: {got} != {want}"
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), field


QOS_WARMUP, QOS_MEASURE = 100, 400

#: (design, nodes, interference mode, rate, config overrides, anatomy,
#: shared band)
QOS_GRID: list[tuple[str, int, str, float, dict, bool, bool]] = [
    ("SF", 64, "noise", 0.3, {}, False, False),
    # Small buffers, a short stall timer and emergency escalation:
    # exercises the credit-stall arming and class-attributed loans.
    ("DM", 36, "incast", 0.5,
     {"buffer_packets": 2, "deadlock_timeout_cycles": 16,
      "emergency_stall_threshold": 16}, False, False),
    ("ODM", 36, "burst", 0.4, {}, False, False),  # multi-channel links
    ("SF", 64, "incast", 0.5, {}, True, False),  # with the latency anatomy
    # Latency and bulk in one priority band: the default table gives
    # every class its own band, so only this point pins DRR weighting.
    ("SF", 64, "noise", 0.3, {}, True, True),
]


def qos_key(design: str, nodes: int, mode: str, rate: float,
            anatomy: bool, shared_band: bool) -> str:
    suffix = ("/anatomy" if anatomy else "") + ("/shared_band" if shared_band else "")
    return f"{design}/N{nodes}/{mode}/r{rate:g}{suffix}"


def shared_band_table():
    """The default classes with latency and bulk sharing band 0."""
    from repro.network.qos import QoSConfig, TrafficClass

    return QoSConfig(classes=(
        TrafficClass(0, "latency", priority=0, weight=4, credit_share=0.5),
        TrafficClass(1, "bulk", priority=0, weight=1, credit_share=0.25),
        TrafficClass(2, "background", priority=1, weight=1, credit_share=0.0),
    ))


def run_qos_point(design: str, nodes: int, mode: str, rate: float,
                  config_overrides: dict, anatomy: bool, shared_band: bool):
    """One seed-fixed interference run under a class table (the default
    one unless *shared_band*)."""
    from repro.network.config import NetworkConfig
    from repro.topologies.registry import make_topology
    from repro.workloads.interference import run_interference

    topo = make_topology(design, nodes, seed=0)
    config = NetworkConfig(**config_overrides) if config_overrides else None
    return run_interference(
        topo, mode=mode, rate=rate, qos=True, config=config,
        classes=shared_band_table() if shared_band else None,
        warmup=QOS_WARMUP, measure=QOS_MEASURE, seed=0, anatomy=anatomy,
    )


def qos_digest(result) -> dict:
    """SimStats, per-class latency samples and anatomy class totals.

    Sample lists are pinned by count and a sha256 of their delivery
    order, so any change in which packet a class arbiter picks shows.
    """
    samples = {
        str(cls): {
            "count": len(values),
            "sha256": hashlib.sha256(json.dumps(values).encode()).hexdigest(),
        }
        for cls, values in sorted(result.samples.items())
    }
    anatomy = None
    if result.anatomy is not None:
        anatomy = {
            str(row["class_id"]): row["components"]
            for row in result.anatomy.class_breakdown().values()
        }
    return {
        "stats": stats_digest(result.stats),
        "class_samples": samples,
        "anatomy_components": anatomy,
    }


def generate_qos() -> dict:
    out = {}
    for design, nodes, mode, rate, cfg, anatomy, shared_band in QOS_GRID:
        key = qos_key(design, nodes, mode, rate, anatomy, shared_band)
        result = run_qos_point(design, nodes, mode, rate, cfg, anatomy,
                               shared_band)
        out[key] = qos_digest(result)
        print(f"{key}: delivered={result.stats.delivered} "
              f"recoveries={result.stats.deadlock_recoveries}")
    return out


def generate() -> dict:
    out = {}
    for design, nodes, pattern, rate, seed, cfg in GRID:
        key = entry_key(design, nodes, pattern, rate, seed)
        stats = run_point(design, nodes, pattern, rate, seed, cfg)
        out[key] = stats_digest(stats)
        print(f"{key}: delivered={stats.delivered} "
              f"lat={stats.avg_latency:.2f}")
    return out


if __name__ == "__main__":
    import sys

    if "--write" not in sys.argv:
        sys.exit("refusing to overwrite fixture without --write")
    target, build = (
        (QOS_FIXTURE, generate_qos) if "--qos" in sys.argv
        else (FIXTURE, generate)
    )
    target.write_text(json.dumps(build(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {target}")
