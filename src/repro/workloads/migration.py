"""Migration scenarios: elastic scaling that pays for data movement.

A *migration scenario* runs address-driven foreground memory traffic on
a String Figure network while a gate-off/wake cycle executes through
the online reconfiguration pipeline — with the victims' pages moving as
real network traffic (:mod:`repro.memory.migration`) instead of the
instant remap of plain churn scenarios.  The foreground load is what
makes the cost measurable: every request resolves its destination
through the page directory, so requests race the pages they target —
some are served before the page moves, some are forwarded after it
left, some stall at the destination waiting for it to land.

Foreground traffic is read-only (migration of a page concurrently
written by third parties needs a coherence protocol the paper does not
model); each request is a ``READ_REQ`` to the page's current location,
serviced by that node's banked DRAM controller, answered with a
``READ_RESP`` carrying one cache line.  Request latency is recorded
request-by-request and split into *baseline / during / after* phases
around the reconfiguration disturbance, which is what
``bench_migration_cost.py`` compares against the ``teleport`` baseline.

:func:`run_migration` builds the stack with
:func:`repro.fabric.build_fabric`, runs the scenario and returns a
:class:`MigrationRunResult` whose :meth:`~MigrationRunResult.payload`
is flat and JSON-safe — the experiment engine's ``migration`` task kind
wraps it, making migration sweeps parallel and cacheable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.topology import StringFigureTopology
from repro.fabric import build_fabric
from repro.memory.address import AddressMapper
from repro.memory.migration import MigrationRecord, PageDirectory
from repro.memory.requests import MemoryRequest, MemoryRequestPath
from repro.network.config import NetworkConfig
from repro.network.elastic import LiveReconfigEvent, LiveReconfigurator
from repro.network.simulator import NetworkSimulator
from repro.network.stats import SimStats, phase_latency
from repro.ops import Op, schedule
from repro.traffic.injection import BernoulliInjector

__all__ = ["ForegroundMemoryTraffic", "MigrationRunResult", "run_migration"]


class ForegroundMemoryTraffic(BernoulliInjector):
    """Per-node Bernoulli read-request load over the page footprint.

    Every active node issues reads to uniformly drawn pages through the
    shared :class:`~repro.memory.requests.MemoryRequestPath`, so the
    load follows the data as it migrates: requests racing a migration
    are served, forwarded after their page, or stalled until it lands.
    The slots come from the injector's geometric clock, on this
    traffic's own ``"mig-fg"`` RNG streams; each issues one read
    instead of sending a packet.  Completions are recorded as
    ``(issue, latency)`` pairs for post-hoc phase analysis.  No request
    is ever dropped; ``issued == completed`` after drain is the
    scenario's conservation invariant alongside ``sent == delivered``.
    """

    stream = "mig-fg"

    def __init__(
        self,
        sim: NetworkSimulator,
        directory: PageDirectory,
        mapper: AddressMapper,
        memory_node,
        rate: float,
        footprint_pages: int,
        warmup: int = 300,
        measure: int = 4000,
        seed: int | None = 0,
        sources: list[int] | None = None,
        reconfig: LiveReconfigurator | None = None,
    ) -> None:
        super().__init__(
            sim, None, rate, warmup=warmup, measure=measure, seed=seed,
            sources=sources,
        )
        self.reconfig = reconfig
        self.footprint_pages = footprint_pages
        self.page_bytes = mapper.interleave_bytes
        self._line = sim.config.cacheline_bytes
        self.issued = 0
        self.completed = 0
        self.skipped_sources = 0
        #: Requests whose page was local at issue (served or stalled).
        self.local_ops = 0
        #: (issue_time, latency) of every completed request.
        self.samples: list[tuple[int, int]] = []
        self.requests = MemoryRequestPath(
            sim,
            directory,
            mapper,
            memory_node,
            self._complete,
            tag="fg",
            measured=False,
            reply_to_forwarder=True,
        )

    def _fire(self, node: int, rng, now: int) -> None:
        """One injection slot of *node* at cycle *now*: issue a read."""
        if self.reconfig is not None and not self.reconfig.usable(node):
            # The node is gated (or draining/revalidating): its cores
            # are asleep too, so it skips this injection slot.
            self.skipped_sources += 1
            return
        page = rng.randrange(self.footprint_pages)
        offset = rng.randrange(self.page_bytes // self._line) * self._line
        request = MemoryRequest(node, "read", page, offset, self._line, t_issue=now)
        self.issued += 1
        if self.requests.inject(request, now) != "remote":
            self.local_ops += 1

    def _complete(self, request: MemoryRequest, now: int) -> None:
        self.completed += 1
        self.samples.append((request.t_issue, now - request.t_issue))


@dataclass
class MigrationRunResult:
    """Everything one migration scenario produced."""

    stats: SimStats
    events: list[LiveReconfigEvent]
    records: list[MigrationRecord]
    foreground: ForegroundMemoryTraffic
    directory: PageDirectory
    mode: str
    num_nodes: int
    footprint_pages: int
    page_bytes: int
    disturb_start: int = 0
    disturb_end: int = 0
    phase: dict[str, Any] = field(default_factory=dict)

    def payload(self) -> dict[str, Any]:
        """Flat JSON-safe metrics (experiment-engine task payload)."""
        stats = self.stats
        fg = self.foreground
        return {
            "mode": self.mode,
            "sent": stats.sent,
            "delivered": stats.delivered,
            "in_flight": stats.in_flight,
            "num_nodes": self.num_nodes,
            "footprint_pages": self.footprint_pages,
            "page_bytes": self.page_bytes,
            "fg_issued": fg.issued,
            "fg_completed": fg.completed,
            "fg_skipped_sources": fg.skipped_sources,
            "fg_local_ops": fg.local_ops,
            "fg_forwarded": fg.requests.forwarded,
            "fg_stalled": fg.requests.stalled,
            "pages_moved": sum(r.pages_moved for r in self.records),
            "bytes_moved": sum(r.bytes_moved for r in self.records),
            "chunks_sent": sum(r.chunks_sent for r in self.records),
            "migration_makespan": sum(r.makespan_cycles for r in self.records),
            "max_makespan": max(
                (r.makespan_cycles for r in self.records), default=0
            ),
            "migrations_done": all(r.done for r in self.records),
            "num_events": len(self.events),
            "disturb_start": self.disturb_start,
            "disturb_end": self.disturb_end,
            "records": [r.to_dict() for r in self.records],
            "events": [e.to_dict() for e in self.events],
            "page_conservation": self.directory.check_conservation(),
            "deadlock_recoveries": stats.deadlock_recoveries,
            "emergency_loans": stats.emergency_loans,
            **self.phase,
        }


def run_migration(
    topology: StringFigureTopology,
    rate: float = 0.1,
    gate_fraction: float = 0.25,
    gate_at: int | None = None,
    wake_at: int | None = None,
    footprint_pages: int = 128,
    page_bytes: int = 4096,
    rate_limit: float = 32.0,
    max_inflight_pages: int = 4,
    chunk_bytes: int = 512,
    mode: str = "migrate",
    warmup: int = 300,
    measure: int = 6000,
    drain_limit: int = 80_000,
    seed: int | None = 0,
    instrument=None,
) -> MigrationRunResult:
    """One gate-off/wake cycle with real data migration, start to drain.

    Reconfiguration mutates the topology and routing tables, so callers
    must pass a *fresh* topology (never a memoized instance).  With
    ``mode="teleport"`` the identical scenario runs with the PR-2
    instant remap — the baseline the migration numbers are measured
    against.  Injection stops at ``warmup + measure``; the run then
    drains fully so both conservation invariants (``sent == delivered``
    and ``issued == completed``) are checkable at the end.
    """
    line = NetworkConfig.cacheline_bytes
    if page_bytes < line:
        raise ValueError(
            f"page_bytes ({page_bytes}) must be at least one cache line ({line})"
        )
    if footprint_pages < 1:
        raise ValueError(f"footprint_pages must be >= 1, got {footprint_pages}")
    if gate_at is None:
        gate_at = warmup + measure // 4
    if wake_at is None:
        wake_at = warmup + measure // 2
    if not gate_at < wake_at:
        raise ValueError(f"gate_at ({gate_at}) must precede wake_at ({wake_at})")

    fabric = build_fabric(
        topology,
        instrument=instrument,
        footprint_pages=footprint_pages,
        page_bytes=page_bytes,
        mig_rate_limit=rate_limit,
        max_inflight_pages=max_inflight_pages,
        chunk_bytes=chunk_bytes,
        mode=mode,
    )
    sim, live, engine = fabric.sim, fabric.live, fabric.engine
    foreground = ForegroundMemoryTraffic(
        sim,
        fabric.directory,
        fabric.mapper,
        fabric.memory_node,
        rate,
        footprint_pages,
        warmup=warmup,
        measure=measure,
        seed=seed,
        reconfig=live,
    )
    foreground.start()

    schedule(fabric, [Op(gate_at, "gate_off", fraction=gate_fraction), Op(wake_at, "gate_on")])

    sim.run(until=warmup + measure)
    sim.run(until=warmup + measure + drain_limit)
    if sim.pending_events:
        # Slow rate limits can push the wake-side migrate-in past the
        # drain budget; finish it so conservation is checkable.  The
        # foreground has stopped injecting, so the heap must empty.
        sim.drain()
    sim.stats.measure_cycles = measure

    # Disturbance window: from the first reconfiguration request to the
    # last cycle any part of the pipeline (including migration) ran.
    starts = [e.t_request for e in live.events]
    ends = [e.t_unblocked for e in live.events]
    for record in engine.records:
        starts.append(record.t_start)
        if record.t_end is not None:
            ends.append(record.t_end)
    disturb_start = min(starts, default=gate_at)
    disturb_end = max(ends, default=wake_at)
    result = MigrationRunResult(
        stats=sim.stats,
        events=live.events,
        records=engine.records,
        foreground=foreground,
        directory=fabric.directory,
        mode=mode,
        num_nodes=topology.num_nodes,
        footprint_pages=footprint_pages,
        page_bytes=page_bytes,
        disturb_start=disturb_start,
        disturb_end=disturb_end,
    )
    phase = phase_latency(foreground.samples, warmup, disturb_start, disturb_end)
    latencies = [lat for issued, lat in foreground.samples if issued >= warmup]
    phase["fg_mean_overall"] = sum(latencies) / len(latencies) if latencies else 0.0
    base_p50 = phase["fg_p50_baseline"]
    phase["fg_slowdown_p50"] = phase["fg_p50_during"] / base_p50 if base_p50 else 0.0
    result.phase = phase
    return result
