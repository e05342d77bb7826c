"""Probes installed vs absent must be observationally identical.

The observability layer's core contract: probes never schedule events
and never allocate sequence numbers, so an instrumented run's SimStats
(and, for the service, its completions/replay digests) are bit-for-bit
the stats of the uninstrumented run.  A probed run takes the unfused
send loop and a bare one :meth:`NetworkSimulator.run`'s fused wake
hop, so these tests also hold the two send paths equal.  They cover
the golden grid, live churn, link faults with retransmits, and the
multi-tenant service path — plus the counter reconciliation the
timeseries recorder guarantees.
"""

from __future__ import annotations

import pytest

from tests.network.golden_grid import (
    DRAIN,
    GRID,
    MEASURE,
    WARMUP,
    entry_key,
    stats_digest,
)

#: Fast subset of the golden grid run on every test invocation; the
#: full grid rides behind the ``slow`` marker like the golden-stats suite.
FAST_GRID = [GRID[0], GRID[3], GRID[7]]


def _make_probes():
    from repro.obs import FabricProbes

    return FabricProbes.full(interval=64, fraction=0.05, ring_size=32)


def _run_grid_point(design, nodes, pattern_name, rate, seed, cfg, probes):
    from repro.network.config import NetworkConfig
    from repro.topologies.registry import make_policy, make_topology
    from repro.traffic.injection import run_synthetic
    from repro.traffic.patterns import make_pattern

    topo = make_topology(design, nodes, seed=0)
    policy = make_policy(topo)
    pattern = make_pattern(pattern_name, topo.active_nodes)
    config = NetworkConfig(**cfg) if cfg else None
    instrument = None if probes is None else probes.attach_sim
    return run_synthetic(
        topo, policy, pattern, rate, config=config,
        warmup=WARMUP, measure=MEASURE, drain_limit=DRAIN, seed=seed,
        instrument=instrument,
    )


@pytest.mark.parametrize(
    "design,nodes,pattern,rate,seed,cfg",
    FAST_GRID,
    ids=[entry_key(*entry[:5]) for entry in FAST_GRID],
)
def test_probed_matches_bare_fast(design, nodes, pattern, rate, seed, cfg):
    bare = _run_grid_point(design, nodes, pattern, rate, seed, cfg, None)
    probed = _run_grid_point(
        design, nodes, pattern, rate, seed, cfg, _make_probes()
    )
    assert stats_digest(bare) == stats_digest(probed)


@pytest.mark.slow
@pytest.mark.parametrize(
    "design,nodes,pattern,rate,seed,cfg",
    GRID,
    ids=[entry_key(*entry[:5]) for entry in GRID],
)
def test_probed_matches_bare_on_golden_grid(
    design, nodes, pattern, rate, seed, cfg
):
    bare = _run_grid_point(design, nodes, pattern, rate, seed, cfg, None)
    probed = _run_grid_point(
        design, nodes, pattern, rate, seed, cfg, _make_probes()
    )
    assert stats_digest(bare) == stats_digest(probed)


def _churn_run(probes):
    from repro.topologies.registry import make_topology
    from repro.workloads.churn import ChurnSchedule, run_churn

    topo = make_topology("SF", 48, seed=7)
    instrument = None if probes is None else probes.attach_sim
    return run_churn(
        topo, pattern="uniform_random", rate=0.15,
        schedule=ChurnSchedule.cycle(gate_at=400, wake_at=800, fraction=0.25),
        warmup=100, measure=1200, drain_limit=100_000, seed=7,
        instrument=instrument,
    )


def test_probed_matches_bare_under_churn():
    bare = _churn_run(None)
    probed = _churn_run(_make_probes())
    assert bare.payload() == probed.payload()


def _fault_run(probes):
    from repro.topologies.registry import make_topology
    from repro.workloads.faults import run_faults

    topo = make_topology("SF", 64, seed=0)
    instrument = None if probes is None else probes.attach_sim
    return run_faults(
        topo, pattern="uniform_random", rate=0.15,
        schedule="random", fault_rate=0.002,
        kinds=("link_down", "link_flap", "node_hang"),
        detection_timeout=150, retransmit_timeout=32,
        warmup=100, measure=1500, drain_limit=100_000, seed=3,
        instrument=instrument,
    )


def test_probed_matches_bare_under_faults():
    bare = _fault_run(None)
    probed = _fault_run(_make_probes())
    bare_payload, probed_payload = bare.payload(), probed.payload()
    assert bare_payload == probed_payload
    # The scenario must actually exercise the fault machinery, or the
    # equality above proves nothing about the fault-path hooks.
    assert probed_payload["num_faults"] >= 1


def _service_run(probes, keep=False):
    from repro.workloads.service import run_service

    def instrument(service):
        service.install_probes(probes)

    return run_service(
        nodes=48, tenants=4, requests_per_tenant=24, rate=0.05,
        footprint_pages=128, seed=11, scale_at=200, scale_count=2,
        scale_back_after=400, keep_service=keep,
        instrument=None if probes is None else instrument,
    )


def test_probed_matches_bare_service_digests():
    bare = _service_run(None)
    probed = _service_run(_make_probes())
    assert bare.digest == probed.digest
    assert bare.payload() == probed.payload()


def test_probed_service_replay_digest_identical():
    from repro.service.log import RequestLog, replay

    probed = _service_run(_make_probes(), keep=True)
    log = RequestLog.capture(probed.service)
    replayed = replay(log)  # replay runs bare: no probes installed
    assert replayed.digest() == probed.digest


def test_probed_run_reconciles_with_simstats():
    """Timeseries sums + event counters == the run's own final totals."""
    probes = _make_probes()
    stats = _run_grid_point(*GRID[0][:5], GRID[0][5], probes)
    sim = probes._sim
    probes.finish(sim.now)
    sums = probes.recorder.sum_counters()
    assert sums["repro_sim_packets_sent_total"] == stats.sent
    assert sums["repro_sim_packets_delivered_total"] == stats.delivered
    finals = {
        s.key: s.value
        for s in probes.registry.collect() if s.kind == "counter"
    }
    assert finals  # the probe set actually registered counters
    for key, value in finals.items():
        assert sums.get(key, 0) == value, key
    event_total = sum(
        v for k, v in finals.items() if k.startswith("repro_sim_events_total")
    )
    assert event_total == probes.events_processed() == sim._events_processed
