"""Frozen link-core results: what the simulator's event order produces.

The simulator once had two link-event cores.  The eager one pushed a
``LINK_FREE`` event for every transmission; the lazy one, the only core
left, pushes one only when a send blocks and elides the rest.  Both put
each transmission's release at the same reserved sequence number, so
they processed every send, retry and wake at the same ``(time, seq)``
point.  ``frozen_link_core.json`` was recorded at commit 631c548 from
the eager core, and the recorder refused to write unless the lazy core
gave identical values.  It pins:

* ``grid/<key>`` — for each :data:`golden_grid.GRID` point, the events
  the eager core processed.  The lazy core's ``logical_events``
  (processed plus elided) must equal it after the full drain.  The
  grid's SimStats are pinned separately by ``golden_simstats.json``.
* ``churn`` — a gate-off and wake run through the live reconfigurator:
  :func:`golden_grid.stats_digest`, ``dropped`` and the event count.
* ``link_faults`` — a link pair failing and being restored under
  traffic, with retransmission: the same fields, plus the fault layer's
  drops by cause and ``retransmits``.

Regenerate (only when the event order intentionally changes)::

    PYTHONPATH=src python tests/network/frozen_link_core.py --write

``--write`` records from the one remaining core and refuses unless
every grid point's SimStats still match ``golden_simstats.json``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from tests.network.golden_grid import (
    DRAIN,
    FIXTURE as GOLDEN_FIXTURE,
    GRID,
    MEASURE,
    WARMUP,
    assert_stats_match,
    entry_key,
    stats_digest,
)

FIXTURE = Path(__file__).parent / "frozen_link_core.json"


def grid_run(design, nodes, pattern_name, rate, seed, cfg):
    """One golden-grid point, run exactly as :func:`golden_grid.run_point`
    does; returns its simulator."""
    from repro.network.config import NetworkConfig
    from repro.topologies.registry import make_policy, make_topology
    from repro.traffic.injection import run_synthetic
    from repro.traffic.patterns import make_pattern

    topo = make_topology(design, nodes, seed=0)
    policy = make_policy(topo)
    pattern = make_pattern(pattern_name, topo.active_nodes)
    config = NetworkConfig(**cfg) if cfg else None
    sims: list = []
    run_synthetic(
        topo,
        policy,
        pattern,
        rate,
        config=config,
        warmup=WARMUP,
        measure=MEASURE,
        drain_limit=DRAIN,
        seed=seed,
        instrument=sims.append,
    )
    return sims[0]


def churn_run():
    """A deterministic gate-off plus wake run on SF-48 under traffic."""
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
    sim = NetworkSimulator(topo, policy, config)
    manager = ReconfigurationManager(topo, routing)
    power = PowerManager(manager, config=sim.config)
    live = LiveReconfigurator(sim, manager, policy, power=power)
    pattern = make_pattern("uniform_random", topo.active_nodes)
    injector = ChurnInjector(sim, pattern, 0.15, warmup=100, measure=1200, seed=7, reconfig=live)
    injector.start()
    live.gate_off(live.select_victims(fraction=0.25), at=400)

    def wake(now: int) -> None:
        gated = [n for ev in live.events for n in ev.nodes if ev.kind == "gate_off"]
        if gated:
            live.gate_on(gated)

    sim.schedule(1000, wake)
    sim.run(until=1300)
    sim.drain(limit=200_000)
    return sim


def fault_run():
    """SF-64 traffic with a link pair failed at cycle 60, restored at 120;
    returns the simulator and its fault layer."""
    from repro.faults.layer import FaultLayer
    from repro.network.simulator import NetworkSimulator
    from repro.topologies.registry import make_policy, make_topology
    from repro.traffic.injection import BernoulliInjector
    from repro.traffic.patterns import make_pattern

    topo = make_topology("SF", 64, seed=0)
    policy = make_policy(topo)
    sim = NetworkSimulator(topo, policy)
    layer = FaultLayer(sim, retransmit_timeout=32)
    src = topo.active_nodes[0]
    nbr = topo.neighbors(src)[0]
    injector = BernoulliInjector(
        sim,
        make_pattern("uniform_random", topo.active_nodes),
        0.2,
        warmup=20,
        measure=200,
        seed=3,
    )
    injector.start()
    sim.schedule(60, lambda now: layer.fail_link_pair(src, nbr))
    sim.schedule(120, lambda now: layer.restore_link_pair(src, nbr))
    sim.run(until=250)
    sim.drain(limit=100_000)
    return sim, layer


def grid_record(sim) -> dict[str, Any]:
    return {"events": sim.logical_events}


def churn_record(sim) -> dict[str, Any]:
    return {
        "stats": stats_digest(sim.stats),
        "dropped": sim.stats.dropped,
        "events": sim.logical_events,
    }


def fault_record(sim, layer) -> dict[str, Any]:
    return {
        **churn_record(sim),
        "drops": dict(sorted(layer.drops.items())),
        "retransmits": layer.retransmits,
    }


def grid_name(entry) -> str:
    return "grid/" + entry_key(*entry[:5])


def record() -> dict[str, Any]:
    """Every record; refuses if a grid point's SimStats moved off
    ``golden_simstats.json``, since the event counts belong to that order."""
    golden = json.loads(GOLDEN_FIXTURE.read_text())
    out: dict[str, Any] = {}
    for entry in GRID:
        sim = grid_run(*entry)
        assert_stats_match(stats_digest(sim.stats), golden[entry_key(*entry[:5])])
        out[grid_name(entry)] = grid_record(sim)
    out["churn"] = churn_record(churn_run())
    out["link_faults"] = fault_record(*fault_run())
    return out


if __name__ == "__main__":
    import sys

    data = record()
    if "--write" in sys.argv:
        FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE}")
    else:
        print(json.dumps(data, indent=1, sort_keys=True))
