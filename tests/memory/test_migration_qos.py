"""Background-class migration: page moves must not drag foreground p99."""

from __future__ import annotations

from repro.memory.address import AddressMapper
from repro.memory.migration import MigrationEngine, PageDirectory
from repro.memory.node import MemoryNodePool
from repro.network.packet import PacketKind
from repro.network.qos import BACKGROUND_CLASS, QoSConfig
from repro.network.simulator import NetworkSimulator
from repro.network.stats import percentile
from repro.topologies.registry import make_policy, make_topology
from repro.traffic.injection import BernoulliInjector
from repro.traffic.patterns import make_pattern


def _migration_under_load(tclass: int) -> tuple[float, int]:
    """Evacuate 12 nodes at full blast while foreground traffic runs;
    returns (foreground p99, pages moved)."""
    topo = make_topology("DM", 36, seed=1)
    sim = NetworkSimulator(topo, make_policy(topo, adaptive=True))
    sim.install_qos(QoSConfig.default())
    active = list(topo.active_nodes)
    mapper = AddressMapper(active, interleave_bytes=4096)
    directory = PageDirectory()
    directory.populate(mapper, 384)
    engine = MigrationEngine(
        sim, mapper, directory, MemoryNodePool(sim),
        rate_limit_bytes_per_cycle=2048.0, max_inflight_pages=16,
        tclass=tclass,
    )
    samples: list[int] = []
    sim.on_delivery(
        lambda p, now: samples.append(p.latency)
        if p.measured and p.kind is PacketKind.DATA else None
    )
    warmup, measure = 200, 1500
    BernoulliInjector(
        sim, make_pattern("uniform_random", active), 0.08,
        warmup=warmup, measure=measure, seed=5,
    ).start()
    victims = active[:12]
    sim.schedule(warmup, lambda t: engine.migrate_out(victims))
    sim.run(until=warmup + measure)
    sim.run(until=warmup + measure + 250_000)
    assert sim.stats.in_flight == 0, "packet conservation violated"
    assert directory.check_conservation()
    return percentile(samples, 99), engine.total_pages_moved


def test_background_class_protects_foreground_p99():
    """Satellite 2: tagging MIG_READ/MIG_DATA as the background class
    improves foreground p99 during migration vs the untagged baseline
    (untagged migration competes inside the latency class's own
    reservation and priority band)."""
    untagged_p99, untagged_pages = _migration_under_load(0)
    tagged_p99, tagged_pages = _migration_under_load(BACKGROUND_CLASS)
    assert untagged_pages == tagged_pages > 0, "unequal migration work"
    assert tagged_p99 < untagged_p99


def test_migration_packets_carry_engine_class():
    """Every MIG_READ/MIG_DATA packet is stamped with the engine's class."""
    topo = make_topology("SF", 16, seed=1)
    sim = NetworkSimulator(topo, make_policy(topo, adaptive=True))
    sim.install_qos(QoSConfig.default())
    active = list(topo.active_nodes)
    mapper = AddressMapper(active, interleave_bytes=4096)
    directory = PageDirectory()
    directory.populate(mapper, 32)
    engine = MigrationEngine(
        sim, mapper, directory, MemoryNodePool(sim), tclass=BACKGROUND_CLASS,
    )
    seen: list[int] = []
    sim.on_delivery(
        lambda p, now: seen.append(p.tclass)
        if p.kind in (PacketKind.MIG_READ, PacketKind.MIG_DATA) else None
    )
    engine.migrate_out(active[:2])
    sim.run(until=200_000)
    assert seen, "no migration packets observed"
    assert set(seen) == {BACKGROUND_CLASS}
