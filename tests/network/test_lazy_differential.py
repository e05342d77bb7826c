"""Lazy vs eager link-event cores must be observationally identical.

The lazy core (the default) elides LINK_FREE events on
uncongested channels, reserving their sequence numbers so every send,
retry and wake lands at the same ``(time, seq)`` point the eager core
would process it at.  These tests run both cores over the full golden
grid, a live-churn reconfiguration run, and a link-fault/retransmit
scenario, asserting bit-identical SimStats — and, under faults,
identical dropped/retransmit counters.  ``logical_events`` (processed
+ elided) must equal the eager core's processed-event count exactly
after a full drain, which is what keeps event counts comparable across
the two cores.
"""

from __future__ import annotations

import pytest

from tests.network.golden_grid import DRAIN, GRID, MEASURE, WARMUP, entry_key, stats_digest


def _run_grid_point(design, nodes, pattern_name, rate, seed, cfg, eager):
    from repro.network.config import NetworkConfig
    from repro.topologies.registry import make_policy, make_topology
    from repro.traffic.injection import run_synthetic
    from repro.traffic.patterns import make_pattern

    topo = make_topology(design, nodes, seed=0)
    policy = make_policy(topo)
    pattern = make_pattern(pattern_name, topo.active_nodes)
    config = NetworkConfig(**cfg) if cfg else None
    return run_synthetic(
        topo, policy, pattern, rate, config=config,
        warmup=WARMUP, measure=MEASURE, drain_limit=DRAIN, seed=seed,
        eager_link_events=eager,
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "design,nodes,pattern,rate,seed,cfg",
    GRID,
    ids=[entry_key(*entry[:5]) for entry in GRID],
)
def test_lazy_matches_eager_on_golden_grid(
    design, nodes, pattern, rate, seed, cfg
):
    lazy = _run_grid_point(design, nodes, pattern, rate, seed, cfg, False)
    eager = _run_grid_point(design, nodes, pattern, rate, seed, cfg, True)
    assert stats_digest(lazy) == stats_digest(eager)


def _churn_run(eager: bool):
    """One deterministic churn run (gate-off + wake) under either core."""
    from repro.core.reconfig import ReconfigurationManager
    from repro.core.routing import AdaptiveGreediestRouting
    from repro.core.topology import StringFigureTopology
    from repro.energy.power_gating import PowerManager
    from repro.network.config import NetworkConfig
    from repro.network.elastic import LiveReconfigurator
    from repro.network.policies import GreedyPolicy
    from repro.network.simulator import NetworkSimulator
    from repro.traffic.patterns import make_pattern
    from repro.workloads.churn import ChurnInjector

    topo = StringFigureTopology(48, 4, seed=7)
    routing = AdaptiveGreediestRouting(topo)
    policy = GreedyPolicy(routing)
    config = NetworkConfig(emergency_stall_threshold=16)
    sim = NetworkSimulator(topo, policy, config, eager_link_events=eager)
    manager = ReconfigurationManager(topo, routing)
    power = PowerManager(manager, config=sim.config)
    live = LiveReconfigurator(sim, manager, policy, power=power)
    pattern = make_pattern("uniform_random", topo.active_nodes)
    injector = ChurnInjector(
        sim, pattern, 0.15, warmup=100, measure=1200, seed=7, reconfig=live
    )
    injector.start()
    live.gate_off(live.select_victims(fraction=0.25), at=400)

    def wake(now: int) -> None:
        gated = [n for ev in live.events for n in ev.nodes
                 if ev.kind == "gate_off"]
        if gated:
            live.gate_on(gated)

    sim.schedule(1000, wake)
    sim.run(until=1300)
    sim.drain(limit=200_000)
    return sim


def _fault_run(eager: bool):
    """Deterministic traffic with a mid-run link failure and repair."""
    from repro.faults.layer import FaultLayer
    from repro.network.simulator import NetworkSimulator
    from repro.topologies.registry import make_policy, make_topology
    from repro.traffic.injection import BernoulliInjector
    from repro.traffic.patterns import make_pattern

    topo = make_topology("SF", 64, seed=0)
    policy = make_policy(topo)
    sim = NetworkSimulator(topo, policy, eager_link_events=eager)
    layer = FaultLayer(sim, retransmit_timeout=32)
    src = topo.active_nodes[0]
    nbr = topo.neighbors(src)[0]
    injector = BernoulliInjector(
        sim, make_pattern("uniform_random", topo.active_nodes), 0.2,
        warmup=20, measure=200, seed=3,
    )
    injector.start()
    sim.schedule(60, lambda now: layer.fail_link_pair(src, nbr))
    sim.schedule(120, lambda now: layer.restore_link_pair(src, nbr))
    sim.run(until=250)
    sim.drain(limit=100_000)
    return sim, layer


def test_lazy_matches_eager_under_churn():
    lazy = _churn_run(False)
    eager = _churn_run(True)
    assert stats_digest(lazy.stats) == stats_digest(eager.stats)
    assert lazy.stats.dropped == eager.stats.dropped
    # The elided LINK_FREE traffic accounts for every event the eager
    # core had to process: logical work is mode-independent.
    assert eager.link_events_elided == 0
    assert lazy.logical_events == eager.logical_events
    assert lazy.link_events_elided > 0


def test_lazy_matches_eager_under_link_faults():
    lazy_sim, lazy_layer = _fault_run(False)
    eager_sim, eager_layer = _fault_run(True)
    assert stats_digest(lazy_sim.stats) == stats_digest(eager_sim.stats)
    assert lazy_sim.stats.dropped == eager_sim.stats.dropped
    assert dict(lazy_layer.drops) == dict(eager_layer.drops)
    assert lazy_layer.retransmits == eager_layer.retransmits
    assert lazy_sim.logical_events == eager_sim.logical_events
    # The fault scenario must actually exercise drop + retransmit.
    assert lazy_sim.stats.dropped >= 1
    assert lazy_layer.retransmits >= 1
