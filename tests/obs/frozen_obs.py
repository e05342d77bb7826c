"""Frozen observability results: what the probes and the anatomy report.

``frozen_obs.json`` pins, for each run below, every number the
observability layer reports about it:

* ``anatomy`` — :meth:`LatencyAnatomy.summary` (class totals, component
  totals, the interference matrix, the top hotspot rows) plus a sha256
  of every per-link hotspot row;
* ``probes`` — :meth:`FabricProbes.summary` without its anatomy part
  (event counts, credit stalls, high-water), the per-stage hop
  counters, and a sha256 of the full per-link high-water map;
* ``registry`` — a sha256 of the Prometheus exposition;
* ``tracer`` — sha256 digests of the tracer's component (``c:``)
  records and of all its records, where a tracer is installed;
* ``stats`` — the run's :func:`golden_grid.stats_digest`.

The runs cover each way the probes bind the simulator's hooks: the full
set (tracer, recorder and anatomy), an anatomy alone, probes alone, an
anatomy installed or removed between two ``run`` calls, and probes
installed between two ``run`` calls; on classless and class-aware
single-channel wires, multi-channel (ODM) wires, live reconfiguration
(arrivals parked by the reconfigurator) and faults (drops, parks and
retransmits).

Regenerate (only when what the observability layer reports
intentionally changes)::

    PYTHONPATH=src python tests/obs/frozen_obs.py --write

``--write`` refuses unless the classless grid run's SimStats match
``golden_simstats.json`` and every probed run's SimStats match the same
run without probes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from tests.network.golden_grid import (
    FIXTURE as GOLDEN_FIXTURE,
    GRID,
    assert_stats_match,
    entry_key,
    stats_digest,
)

FIXTURE = Path(__file__).parent / "frozen_obs.json"

#: The classless golden-grid point the ``sf64_classless`` run repeats.
GRID_POINT = GRID[0]


def sha(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def full_probes():
    """Tracer, recorder and anatomy: every hook fans out."""
    from repro.obs import FabricProbes

    return FabricProbes.full(interval=64, fraction=0.05, ring_size=32)


def anatomy_probes():
    """Probes plus an anatomy, no tracer or recorder."""
    from repro.obs import FabricProbes

    probes = FabricProbes()
    probes.install_anatomy()
    return probes


def plain_probes():
    from repro.obs import FabricProbes

    return FabricProbes()


def sf64_classless(probes):
    """The golden-grid point SF-64 uniform random at 0.10, seed 0."""
    from repro.network.config import NetworkConfig
    from repro.topologies.registry import make_policy, make_topology
    from repro.traffic.injection import run_synthetic
    from repro.traffic.patterns import make_pattern
    from tests.network.golden_grid import DRAIN, MEASURE, WARMUP

    design, nodes, pattern_name, rate, seed, cfg = GRID_POINT
    topo = make_topology(design, nodes, seed=0)
    sims: list = []

    def instrument(sim):
        sims.append(sim)
        if probes is not None:
            probes.attach_sim(sim)

    run_synthetic(
        topo,
        make_policy(topo),
        make_pattern(pattern_name, topo.active_nodes),
        rate,
        config=NetworkConfig(**cfg) if cfg else None,
        warmup=WARMUP,
        measure=MEASURE,
        drain_limit=DRAIN,
        seed=seed,
        instrument=instrument,
    )
    return sims[0]


def _interference(design, nodes, probes, rate):
    """An incast run under the default class table with the anatomy."""
    from repro.topologies.registry import make_topology
    from repro.workloads.interference import run_interference

    sims: list = []

    def instrument(sim):
        sims.append(sim)
        if probes is not None:
            probes.attach_sim(sim)

    run_interference(
        make_topology(design, nodes, seed=0),
        mode="incast",
        rate=rate,
        fg_rate=0.05,
        qos=True,
        warmup=200,
        measure=800,
        seed=1,
        anatomy=probes is not None,
        instrument=instrument,
    )
    return sims[0]


def sf64_qos_incast(probes):
    return _interference("SF", 64, probes, 0.3)


def odm36_qos(probes):
    return _interference("ODM", 36, probes, 0.4)


def churn_parks(probes):
    """SF-48 gate-off and wake under traffic: the reconfigurator parks
    arrivals at blocked routers and re-enters them."""
    from repro.topologies.registry import make_topology
    from repro.workloads.churn import ChurnSchedule, run_churn

    sims: list = []

    def instrument(sim):
        sims.append(sim)
        if probes is not None:
            probes.attach_sim(sim)

    run_churn(
        make_topology("SF", 48, seed=7),
        pattern="uniform_random",
        rate=0.15,
        schedule=ChurnSchedule.cycle(gate_at=400, wake_at=800, fraction=0.25),
        warmup=100,
        measure=1200,
        drain_limit=100_000,
        seed=7,
        instrument=instrument,
    )
    return sims[0]


def faults_drops(probes):
    """SF-64 random link downs, flaps and router hangs: drops on dead
    links, parks at hung routers and retransmissions."""
    from repro.topologies.registry import make_topology
    from repro.workloads.faults import run_faults

    sims: list = []

    def instrument(sim):
        sims.append(sim)
        if probes is not None:
            probes.attach_sim(sim)

    run_faults(
        make_topology("SF", 64, seed=0),
        pattern="uniform_random",
        rate=0.15,
        schedule="random",
        fault_rate=0.002,
        kinds=("link_down", "link_flap", "node_hang"),
        detection_timeout=150,
        retransmit_timeout=32,
        warmup=100,
        measure=1500,
        drain_limit=100_000,
        seed=3,
        instrument=instrument,
    )
    return sims[0]


def _split_run(probes, attach_at_start, mutate):
    """SF-48 traffic driven through explicit ``run`` boundaries so the
    observability state can change at cycle 450 without touching the
    event queue."""
    from repro.network.simulator import NetworkSimulator
    from repro.topologies.registry import make_policy, make_topology
    from repro.traffic.injection import BernoulliInjector
    from repro.traffic.patterns import make_pattern

    topo = make_topology("SF", 48, seed=0)
    sim = NetworkSimulator(topo, make_policy(topo))
    if probes is not None and attach_at_start:
        probes.attach_sim(sim)
    injector = BernoulliInjector(
        sim,
        make_pattern("uniform_random", topo.active_nodes),
        0.2,
        warmup=100,
        measure=800,
        seed=5,
    )
    injector.start()
    sim.run(until=450)
    if probes is not None:
        mutate(sim, probes)
    sim.run(until=900)
    sim.run(until=40_000)
    sim.stats.measure_cycles = 800
    return sim


def mid_run_install(probes):
    """Probes from the start; the anatomy installed at cycle 450."""
    return _split_run(probes, True, lambda sim, p: p.install_anatomy())


def probes_mid_run(probes):
    """Probes and anatomy attached together at cycle 450 (the daemon's
    first-scrape install)."""

    def attach(sim, p):
        p.attach_sim(sim)
        p.install_anatomy()

    return _split_run(probes, False, attach)


def anatomy_removed(probes):
    """Probes and anatomy from the start; the anatomy removed at 450."""

    def remove(sim, p):
        p.anatomy = None

    return _split_run(probes, True, remove)


#: name -> (run taking the probes or None for a bare run, probes factory).
CASES = {
    "sf64_classless": (sf64_classless, full_probes),
    "sf64_qos_incast": (sf64_qos_incast, plain_probes),
    "odm36_qos": (odm36_qos, full_probes),
    "churn_parks_anatomy": (churn_parks, anatomy_probes),
    "churn_parks_full": (churn_parks, full_probes),
    "faults_drops_anatomy": (faults_drops, anatomy_probes),
    "faults_drops_full": (faults_drops, full_probes),
    "mid_run_install": (mid_run_install, plain_probes),
    "probes_mid_run": (probes_mid_run, plain_probes),
    "anatomy_removed": (anatomy_removed, anatomy_probes),
}


def run_case(name: str):
    """Run *name* with its probes; returns ``(sim, probes, anatomy)``.

    *anatomy* is the one installed at the end, or, for the removal
    case, the one that was removed.
    """
    import itertools

    from repro.network import packet

    # Packet ids come from one process-wide counter and the tracer
    # samples by id: restart it so a record never depends on the runs
    # made before it.
    packet._packet_ids = itertools.count()
    run, factory = CASES[name]
    probes = factory()
    first = probes.anatomy
    sim = run(probes)
    anatomy = probes.anatomy if probes.anatomy is not None else first
    return sim, probes, anatomy


def bare_stats(name: str) -> dict:
    run, _factory = CASES[name]
    return stats_digest(run(None).stats)


def anatomy_record(anatomy) -> dict[str, Any]:
    links = [entry.to_dict() for _key, entry in sorted(anatomy.hotspots.links.items())]
    return {
        "summary": json.loads(json.dumps(anatomy.summary(), sort_keys=True)),
        "links_sha256": sha(links),
    }


def probes_record(probes) -> dict[str, Any]:
    summary = probes.summary()
    summary.pop("anatomy", None)
    highwater = sorted([list(link), hw] for link, hw in probes.link_highwater.items())
    return {
        "summary": json.loads(json.dumps(summary, sort_keys=True)),
        "hops": {
            "inject": probes.injections,
            "arrive": probes.arrivals,
            "enqueue": probes.enqueues,
            "transmit": probes.transmissions,
            "deliver": probes.deliveries,
            "drop": probes.drops,
        },
        "link_highwater_sha256": sha(highwater),
    }


def record_case(name: str) -> dict[str, Any]:
    sim, probes, anatomy = run_case(name)
    out: dict[str, Any] = {
        "stats": stats_digest(sim.stats),
        "probes": probes_record(probes),
        "registry_sha256": hashlib.sha256(probes.registry.to_prometheus().encode()).hexdigest(),
    }
    if anatomy is not None:
        out["anatomy"] = anatomy_record(anatomy)
    tracer = probes.tracer
    if tracer is not None:
        records = [list(r) for r in tracer.records]
        out["tracer"] = {
            "records": len(records),
            "records_sha256": sha(records),
            "components_sha256": sha([r for r in records if r[1].startswith("c:")]),
        }
    return out


def record() -> dict[str, Any]:
    """Every record; refuses if a probed run's SimStats moved off its
    bare twin, or the grid point's off ``golden_simstats.json``."""
    golden = json.loads(GOLDEN_FIXTURE.read_text())
    out: dict[str, Any] = {}
    for name in CASES:
        entry = record_case(name)
        assert_stats_match(entry["stats"], bare_stats(name))
        out[name] = entry
    assert_stats_match(out["sf64_classless"]["stats"], golden[entry_key(*GRID_POINT[:5])])
    return out


if __name__ == "__main__":
    import sys

    data = record()
    if "--write" in sys.argv:
        FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE}")
    else:
        print(json.dumps(data, indent=1, sort_keys=True))
