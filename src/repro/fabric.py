"""One assembly for the elastic memory fabric.

:func:`build_fabric` is the only place that wires the paper's elastic
memory network (§III-C) — greedy routing, live reconfiguration under a
power manager, pages with real migration, and fault detection and
recovery — for the resident service and the churn, migration and fault
runners.  Each caller chooses sub-stacks by passing their settings and
keeps only its own parts (traffic, plans, probes, results).

The construction order is behaviour: ``sim.on_delivery`` and
``live.on_complete`` callbacks run in registration order.  It is
config, policy, simulator, QoS table, ``instrument(sim)`` (the end of
set-up for the benchmarks), page layer, reconfigurator, fault stack;
see "Fabric assembly" in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.reconfig import ReconfigurationManager
from repro.core.topology import StringFigureTopology
from repro.energy.power_gating import PowerManager
from repro.faults.detector import FaultDetector, GraphRepair, TableRepair
from repro.faults.injector import FaultInjector
from repro.faults.layer import FaultLayer
from repro.faults.recovery import RecoveryOrchestrator
from repro.memory.address import AddressMapper
from repro.memory.migration import MigrationEngine, PageDirectory
from repro.memory.node import MemoryNodePool
from repro.network.config import NetworkConfig
from repro.network.elastic import LiveReconfigurator
from repro.network.qos import BACKGROUND_CLASS, QoSConfig
from repro.network.simulator import NetworkSimulator
from repro.topologies.registry import make_policy

__all__ = ["Fabric", "build_fabric"]


@dataclass(eq=False)
class Fabric:
    """The assembled stack; sub-stacks a caller did not choose are None.

    ``gated`` holds the batches gate-off and unmount ops took out, in gate order.
    """

    sim: NetworkSimulator
    qos: QoSConfig | None = None
    mapper: AddressMapper | None = None
    directory: PageDirectory | None = None
    memory_node: MemoryNodePool | None = None
    engine: MigrationEngine | None = None
    live: LiveReconfigurator | None = None
    layer: FaultLayer | None = None
    recovery: RecoveryOrchestrator | None = None
    detector: FaultDetector | None = None
    fault_injector: FaultInjector | None = None
    gated: list[tuple[int, ...]] = field(default_factory=list)


def build_fabric(
    topology,
    *,
    sample_free: bool = False,
    qos: bool = False,
    instrument: Callable[[NetworkSimulator], None] | None = None,
    granularity_ns: float | None = None,
    footprint_pages: int = 0,
    page_bytes: int = 4096,
    mig_rate_limit: float = 16.0,
    max_inflight_pages: int = 4,
    chunk_bytes: int = 512,
    mode: str = "migrate",
    faults: bool = False,
    retransmit_timeout: int = 64,
    max_retries: int = 8,
    detection_timeout: int = 200,
    mirrored: bool = True,
    seed: int | None = 0,
) -> Fabric:
    """Assemble the fabric over a fresh *topology* (it is mutated).

    ``qos`` installs the default class table and shapes page moves and
    retransmissions as background traffic.  ``footprint_pages > 0``
    adds the page layer (the remaining page settings configure its
    :class:`MigrationEngine`); ``faults`` adds the fault stack, whose
    injector draws from *seed*.  ``granularity_ns`` overrides the power
    manager's reconfiguration granularity.  Fault recovery on String
    Figure excises crashes by patching the space-0 ring, so a String
    Figure without shortcut wires (S2) is refused with ``ValueError``.
    """
    is_sf = isinstance(topology, StringFigureTopology)
    if faults and is_sf and not topology.with_shortcuts:
        raise ValueError(
            "fault recovery on String Figure requires shortcut wires "
            "(crash excision patches the space-0 ring)"
        )
    # A reconfiguration or fault transient can leave a saturated network
    # in a credit cycle the reserve slots cannot break; delivery
    # outranks the hard buffering bound.
    config = NetworkConfig(emergency_stall_threshold=16)
    policy = make_policy(topology, adaptive=True)
    sim = NetworkSimulator(topology, policy, config, sample_free=sample_free)
    fabric = Fabric(sim=sim)
    if qos:
        fabric.qos = QoSConfig.default()
        sim.install_qos(fabric.qos)
    if instrument is not None:
        instrument(sim)

    if footprint_pages > 0:
        fabric.mapper = AddressMapper(list(topology.active_nodes), interleave_bytes=page_bytes)
        fabric.directory = PageDirectory()
        fabric.directory.populate(fabric.mapper, footprint_pages)
        fabric.memory_node = MemoryNodePool(sim)
        fabric.engine = MigrationEngine(
            sim,
            fabric.mapper,
            fabric.directory,
            fabric.memory_node,
            rate_limit_bytes_per_cycle=mig_rate_limit,
            max_inflight_pages=max_inflight_pages,
            chunk_bytes=chunk_bytes,
            mode=mode,
            tclass=BACKGROUND_CLASS if qos else 0,
        )

    manager = None
    if is_sf:
        manager = ReconfigurationManager(topology, policy.routing)
        power_kwargs = {} if granularity_ns is None else {"granularity_ns": granularity_ns}
        power = PowerManager(manager, config=config, **power_kwargs)
        fabric.live = LiveReconfigurator(sim, manager, policy, power=power, migrator=fabric.engine)

    if faults:
        layer = fabric.layer = FaultLayer(
            sim,
            retransmit_timeout=retransmit_timeout,
            max_retries=max_retries,
            retransmit_class=BACKGROUND_CLASS if qos else None,
        )
        if is_sf:
            repair = TableRepair(policy.routing, policy)
        else:
            repair = GraphRepair(sim, topology, layer)
        fabric.recovery = RecoveryOrchestrator(
            sim,
            layer,
            live=fabric.live,
            graph_repair=None if is_sf else repair,
            engine=fabric.engine,
            directory=fabric.directory,
            mirrored=mirrored,
        )
        fabric.detector = FaultDetector(
            sim,
            layer,
            repair,
            recovery=fabric.recovery,
            live=fabric.live,
            detection_timeout=detection_timeout,
        )
        fabric.fault_injector = FaultInjector(
            sim, layer, fabric.detector, topology, manager=manager, seed=seed
        )
    return fabric
