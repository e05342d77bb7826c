"""Fault scenarios: unplanned failures under live traffic.

A *fault scenario* runs synthetic foreground traffic on a network while
a :class:`~repro.faults.injector.FaultPlan` fires link flaps, link
failures, node hangs, and node crashes into the event loop — no drain,
no warning — and the detection/repair/recovery stack races to contain
the damage.  It is the unplanned counterpart of the churn scenario
(PR-2) and the migration scenario (PR-3): where those measure the cost
of *scaling*, this measures the cost of *surviving*, which is the
paper's §V resilience argument put under load.

What a run reports:

* **Conservation** — every packet handed to the simulator ends exactly
  one way: ``sent == delivered + lost`` (lost = dropped mid-wire, in a
  crashed router, or as unreachable), with retransmissions accounted
  as fresh sends.  Nothing silently disappears.
* **Phase-tagged latency** — end-to-end request latency (including
  retransmit delays) split into *baseline / during / after* around the
  fault window, p50/p99 each, plus per-fault peak/recovery against the
  windowed probe.
* **Availability** — unreachable-node-cycles across crash and hang
  windows, lost/recovered page counts, retransmit and abandonment
  counters.
* **Data safety** — with a page layer attached, every page is resident
  on a live node, in flight, or explicitly lost
  (``PageDirectory`` conservation); a mirrored single-node crash loses
  zero pages.

Supported designs: String Figure (local table repair + ring-patching
excision through the reconfiguration pipeline) and the DM/Jellyfish
baselines (global minimal-routing recompute) — the paper's resilience
comparison, now under unplanned loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import AdaptiveGreediestRouting
from repro.core.topology import StringFigureTopology
from repro.faults.detector import FaultDetector, GraphRepair, TableRepair
from repro.faults.injector import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultRecord,
)
from repro.faults.layer import FaultLayer
from repro.faults.recovery import RecoveryOrchestrator
from repro.memory.address import AddressMapper
from repro.memory.migration import MigrationEngine, PageDirectory
from repro.memory.node import MemoryNodePool
from repro.network.config import NetworkConfig
from repro.network.elastic import (
    LiveReconfigurator,
    WindowedLatencyProbe,
    disturbance_metrics,
)
from repro.network.packet import PacketKind
from repro.network.policies import GreedyPolicy
from repro.network.simulator import NetworkSimulator
from repro.network.stats import SimStats, phase_latency
from repro.traffic.patterns import make_pattern
from repro.workloads.churn import ChurnInjector

__all__ = ["FaultAwareInjector", "FaultRunResult", "run_faults"]


class FaultAwareInjector(ChurnInjector):
    """Bernoulli injection that reacts to failures the way hosts do.

    The injection loop is :class:`ChurnInjector`'s; only the
    availability predicates differ.  A node whose router crashed or
    hung stops injecting instantly (its cores died or stalled with it:
    physical self-knowledge); remote failures only stop being
    *targeted* once the detector announces them, so the pre-detection
    window sends real traffic into the failure and pays for it.
    Redraws reuse the per-node RNG stream, keeping runs
    bit-deterministic — and with no faults scheduled the stream (hence
    the whole simulation) is bit-identical to a plain
    :class:`~repro.traffic.injection.BernoulliInjector` run.
    """

    def __init__(self, *args, layer: FaultLayer, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.layer = layer

    def _usable_source(self, node: int) -> bool:
        return self.layer.usable_source(node) and (
            self.reconfig is None or self.reconfig.usable(node)
        )

    def _usable_dest(self, node: int) -> bool:
        return self.layer.usable_dest(node) and (
            self.reconfig is None or self.reconfig.usable(node)
        )


@dataclass
class FaultRunResult:
    """Everything one fault scenario produced."""

    stats: SimStats
    records: list[FaultRecord]
    disturbances: list[dict[str, Any]]
    layer: FaultLayer
    injector: FaultAwareInjector
    fault_injector: FaultInjector
    detector: FaultDetector
    recovery: RecoveryOrchestrator | None
    directory: PageDirectory | None
    num_nodes: int
    footprint_pages: int
    mirrored: bool
    run_end: int
    flushed: int
    samples: list[tuple[int, int]] = field(default_factory=list)
    phase: dict[str, Any] = field(default_factory=dict)

    def payload(self) -> dict[str, Any]:
        """Flat JSON-safe metrics (experiment-engine task payload)."""
        stats = self.stats
        layer = self.layer
        records = self.records
        by_kind: dict[str, int] = {}
        for record in records:
            by_kind[record.kind] = by_kind.get(record.kind, 0) + 1
        unreachable = sum(
            r.unreachable_node_cycles(self.run_end) for r in records
        )
        recoveries = [
            d["recovery_cycles"] for d in self.disturbances if d["recovered"]
        ]
        out: dict[str, Any] = {
            "sent": stats.sent,
            "delivered": stats.delivered,
            "lost": stats.dropped,
            "in_flight": stats.in_flight,
            "conserved": stats.sent == stats.delivered + stats.dropped,
            "injected": stats.injected,
            "measured_delivered": stats.measured_delivered,
            "avg_latency": stats.avg_latency,
            "p95_latency": stats.latency.percentile(95),
            "accepted_rate": stats.accepted_rate,
            "fallback_hops": stats.fallback_hops,
            "deadlock_recoveries": stats.deadlock_recoveries,
            "emergency_loans": stats.emergency_loans,
            "num_nodes": self.num_nodes,
            "num_faults": len(records),
            "faults_by_kind": by_kind,
            "detections": self.detector.detections,
            "absorbed_flaps": self.detector.absorbed_flaps,
            "skipped_fault_events": self.fault_injector.skipped_events,
            "unreachable_node_cycles": unreachable,
            "flushed": self.flushed,
            "fg_skipped_sources": self.injector.skipped_sources,
            "fg_redraws": self.injector.redraws,
            "all_recovered": (
                all(d["recovered"] for d in self.disturbances)
                if self.disturbances
                else True
            ),
            "max_peak_ratio": max(
                (d["peak_ratio"] for d in self.disturbances), default=0.0
            ),
            "max_recovery_cycles": max(recoveries, default=0),
            "events": [
                {**record.to_dict(), **disturbance}
                for record, disturbance in zip(records, self.disturbances)
            ],
            **layer.counters(),
        }
        out["footprint_pages"] = self.footprint_pages
        out["mirrored"] = self.mirrored
        if self.directory is not None:
            directory = self.directory
            recovery = self.recovery
            out["pages_lost"] = len(directory.lost)
            out["pages_recovered"] = (
                recovery.pages_recovered if recovery is not None else 0
            )
            out["pages_rehomed"] = (
                recovery.pages_rehomed if recovery is not None else 0
            )
            out["page_conservation"] = directory.check_conservation()
            # "Alive" excludes detected-dead nodes too: a node stranded
            # by a partition still physically holds its pages, but they
            # are unreachable — residency must not paper over that.
            alive = {
                n for n in range(self.num_nodes)
                if n not in layer.crashed and n not in layer.dead
            }
            out["page_residency_ok"] = all(
                directory.state_of(p).value == "resident"
                and directory.owner_of(p) in alive
                for p in directory.pages
            )
            out["recoveries_done"] = all(
                r.t_recovered is not None
                for r in records
                if r.kind == "node_crash"
            )
        else:
            out["pages_lost"] = 0
            out["pages_recovered"] = 0
            out["pages_rehomed"] = 0
            out["page_conservation"] = True
            out["page_residency_ok"] = True
            out["recoveries_done"] = all(
                r.t_recovered is not None or r.t_repaired is not None
                for r in records
                if r.kind == "node_crash"
            )
        # The one compound invariant every consumer (report table, CLI
        # detail, bench assertions) checks — computed here once.
        out["all_conserved"] = bool(
            out["conserved"]
            and out["page_conservation"]
            and out["page_residency_ok"]
        )
        out.update(self.phase)
        return out


def run_faults(
    topology,
    pattern: str = "uniform_random",
    rate: float = 0.1,
    plan: FaultPlan | None = None,
    schedule: str = "random",
    fault_rate: float = 0.001,
    kinds: tuple[str, ...] = FAULT_KINDS,
    flap_cycles: int = 300,
    hang_cycles: int = 500,
    max_crashes: int = 1,
    crash_at: int | None = None,
    detection_timeout: int = 200,
    retransmit_timeout: int = 64,
    max_retries: int = 8,
    footprint_pages: int = 0,
    page_bytes: int = 4096,
    mirrored: bool = True,
    mig_rate_limit: float = 64.0,
    config: NetworkConfig | None = None,
    warmup: int = 300,
    measure: int = 4000,
    drain_limit: int = 60_000,
    seed: int | None = 0,
    payload_bytes: int = 64,
    window_cycles: int = 200,
    instrument=None,
) -> FaultRunResult:
    """One fault scenario, start to full drain.

    Faults mutate the topology, routing tables, and (on crashes) the
    page placement, so callers must pass a *fresh* topology — never a
    memoized instance.  With ``plan=None`` a schedule is generated:
    ``schedule="random"`` draws faults at *fault_rate* per cycle over
    the middle of the measurement window; ``schedule="crash"`` fires a
    single node crash (at *crash_at*, default one quarter into the
    measurement) — the canonical recovery benchmark.  Injection stops
    at ``warmup + measure`` and the run drains fully, which is what
    makes every conservation law checkable at the end:
    ``sent == delivered + lost``, retransmits accounted, and — with a
    page layer (``footprint_pages > 0``) — every page resident on a
    live node or explicitly lost.
    """
    if config is None:
        config = NetworkConfig(emergency_stall_threshold=16)
    is_sf = isinstance(topology, StringFigureTopology)
    if is_sf and not topology.with_shortcuts:
        raise ValueError(
            "fault recovery on String Figure requires shortcut wires "
            "(crash excision patches the space-0 ring)"
        )

    live = None
    manager = None
    if is_sf:
        routing = AdaptiveGreediestRouting(topology)
        policy = GreedyPolicy(routing)
        sim = NetworkSimulator(topology, policy, config)
        manager = ReconfigurationManager(topology, routing)
        live = LiveReconfigurator(sim, manager, policy)
        repair = TableRepair(routing, policy)
    else:
        policy = topology.make_policy(adaptive=True)
        sim = NetworkSimulator(topology, policy, config)
    if instrument is not None:
        instrument(sim)

    layer = FaultLayer(
        sim, retransmit_timeout=retransmit_timeout, max_retries=max_retries
    )
    if not is_sf:
        repair = GraphRepair(sim, topology, layer)

    directory = None
    engine = None
    recovery = None
    if footprint_pages > 0:
        active = list(topology.active_nodes)
        mapper = AddressMapper(active, interleave_bytes=page_bytes)
        directory = PageDirectory()
        directory.populate(mapper, footprint_pages)
        engine = MigrationEngine(
            sim,
            mapper,
            directory,
            MemoryNodePool(sim),
            rate_limit_bytes_per_cycle=mig_rate_limit,
        )
    recovery = RecoveryOrchestrator(
        sim,
        layer,
        live=live,
        graph_repair=None if is_sf else repair,
        engine=engine,
        directory=directory,
        mirrored=mirrored,
    )
    detector = FaultDetector(
        sim, layer, repair, recovery=recovery, live=live,
        detection_timeout=detection_timeout,
    )
    injector = FaultInjector(
        sim, layer, detector, topology, manager=manager, seed=seed
    )
    if plan is None:
        if schedule == "crash":
            at = crash_at if crash_at is not None else warmup + measure // 4
            plan = FaultPlan.single_crash(at)
        elif schedule == "random":
            plan = FaultPlan.random(
                fault_rate,
                start=warmup + measure // 8,
                stop=warmup + (3 * measure) // 4,
                seed=seed,
                kinds=kinds,
                flap_cycles=flap_cycles,
                hang_cycles=hang_cycles,
                max_crashes=max_crashes,
            )
        else:
            raise ValueError(f"unknown fault schedule kind {schedule!r}")
    injector.apply(plan)

    probe = WindowedLatencyProbe(sim, window_cycles=window_cycles)
    traffic = make_pattern(pattern, topology.active_nodes)
    foreground = FaultAwareInjector(
        sim,
        traffic,
        rate,
        warmup=warmup,
        measure=measure,
        payload_bytes=payload_bytes,
        seed=seed,
        layer=layer,
        reconfig=live,
    )

    samples: list[tuple[int, int]] = []
    stop = warmup + measure

    def on_delivery(packet, now) -> None:
        if packet.kind is not PacketKind.DATA:
            return
        meta = layer.take_meta(packet.pid)
        if meta is not None:
            first, _attempts = meta
            if warmup <= first < stop:
                samples.append((first, now - first))
        elif packet.measured:
            samples.append((packet.inject_time, now - packet.inject_time))

    sim.on_delivery(on_delivery)
    foreground.start()

    sim.run(until=stop)
    sim.run(until=stop + drain_limit)
    if sim.pending_events:
        # Recovery transfers and late retransmits may outlive the drain
        # budget; injection has stopped, so the heap must empty.
        sim.drain()
    # Flushing a stuck packet releases its inbound credit, which can
    # pop a credit-blocked upstream packet back into the event loop —
    # so flush and drain alternate until both are quiet, or the
    # conservation law would be checked against an unfinished network.
    flushed = 0
    while True:
        freed = layer.flush_stuck()
        flushed += freed
        if sim.pending_events:
            sim.drain()
        elif freed == 0:
            break
    sim.stats.measure_cycles = measure
    run_end = sim.now

    disturbances = [
        {
            "kind": record.kind,
            "t_fault": record.t_fault,
            "cleared_at": record.cleared_at(run_end),
            **disturbance_metrics(probe, record.t_fault, record.cleared_at(run_end)),
        }
        for record in injector.records
    ]
    result = FaultRunResult(
        stats=sim.stats,
        records=injector.records,
        disturbances=disturbances,
        layer=layer,
        injector=foreground,
        fault_injector=injector,
        detector=detector,
        recovery=recovery,
        directory=directory,
        num_nodes=topology.num_nodes,
        footprint_pages=footprint_pages,
        mirrored=mirrored,
        run_end=run_end,
        flushed=flushed,
        samples=samples,
    )
    records = injector.records
    if records:
        first_fault = min(r.t_fault for r in records)
        last_clear = max(r.cleared_at(run_end) for r in records)
    else:
        first_fault = last_clear = run_end
    result.phase = {
        "fault_window": [first_fault, last_clear],
        **phase_latency(samples, warmup, first_fault, last_clear),
    }
    return result
