"""Synthetic multi-tenant load for the fabric service (offline driver).

Generates a deterministic multi-client request schedule — per-tenant
Bernoulli arrivals over seeded RNG streams, optionally spiked with
mid-run scale/fault control verbs — and pushes it through
:func:`repro.service.log.drive`, the *same* ingestion path the asyncio
daemon and the replay engine use.  This is the repeatable load point
behind the ``service`` experiment kind and the throughput benchmark:
no sockets, no wall clock, bit-identical across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.ops import Op
from repro.utils.rng import derive_rng

__all__ = ["synthetic_schedule", "run_service", "ServiceRunResult"]


def synthetic_schedule(
    tenants: int = 8,
    requests_per_tenant: int = 64,
    rate: float = 0.05,
    footprint_pages: int = 512,
    read_fraction: float = 0.7,
    size: int = 64,
    seed: int = 0,
    scale_at: int | None = None,
    scale_count: int = 0,
    scale_back_after: int | None = None,
    fault_at: int | None = None,
    fault_kind: str = "node_crash",
    fault_node: int | None = None,
) -> list[dict[str, Any]]:
    """Build a deterministic request-log entry list for *tenants* streams.

    Each tenant is an independent seeded stream issuing
    *requests_per_tenant* requests with geometric inter-arrival gaps of
    mean ``1/rate`` cycles (*rate* is per-tenant requests/cycle), a
    *read_fraction* read/write mix, and uniformly random pages over the
    footprint.  Optional ``scale_at``/``fault_at`` interleave control
    verbs at fixed cycles.  The merged schedule is ordered by
    ``(cycle, tenant, index)`` — a total order, so identical inputs
    always produce the identical entry list.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    keyed: list[tuple[int, int, int, dict[str, Any]]] = []
    for tenant_idx in range(tenants):
        rng = derive_rng(seed, "service-load", tenant_idx)
        name = f"client-{tenant_idx}"
        t = 0
        for i in range(requests_per_tenant):
            # Geometric gap with mean 1/rate (at least 1 cycle).
            gap = 1
            while rng.random() >= rate:
                gap += 1
            t += gap
            op = "read" if rng.random() < read_fraction else "write"
            keyed.append((t, tenant_idx, i, {
                "kind": "request", "t": t, "tenant": name, "op": op,
                "page": rng.randrange(footprint_pages), "offset": 0,
                "size": size, "req_id": f"{name}/{i}",
            }))
    controls: list[Op] = []
    if scale_at is not None and scale_count > 0:
        controls.append(Op(scale_at, "gate_off", count=scale_count))
        if scale_back_after is not None:
            controls.append(Op(scale_at + scale_back_after, "gate_on"))
    if fault_at is not None:
        controls.append(Op(fault_at, "fault", fault_kind=fault_kind, node=fault_node))
    keyed.extend((op.t, -1, i, op.to_entry()) for i, op in enumerate(controls))
    keyed.sort(key=lambda item: item[:3])
    return [entry for _, _, _, entry in keyed]


@dataclass
class ServiceRunResult:
    """Outcome of one offline service run (drained and conserved-checked)."""

    digest: dict[str, Any]
    drain_report: dict[str, Any]
    snapshot: dict[str, Any]
    service: Any = field(default=None, repr=False)

    def payload(self) -> dict[str, Any]:
        """Flat JSON-safe summary row (experiment worker / benchmarks).

        Latency percentiles come from the drain report's ``latency``
        block — :meth:`FabricService.latency_summary`, the single
        sketch-backed path shared with the daemon — so the offline
        table and a live ``drain``/``metrics`` scrape can never drift.
        """
        snap = self.snapshot
        completed = snap["completed"]
        latency = self.drain_report["latency"]
        duration = max(1, snap["now"])
        return {
            "submitted": snap["submitted"],
            "completed": completed,
            "shed": snap["shed"],
            "queued_total": snap["queued_total"],
            "timeouts": snap["timeouts"],
            "forwarded": snap["forwarded"],
            "duration_cycles": snap["now"],
            "requests_per_kcycle": 1000.0 * completed / duration,
            "p50": latency["p50"],
            "p99": latency["p99"],
            "p50_max": latency["p50_max"],
            "p99_max": latency["p99_max"],
            "sent": snap["sent"],
            "delivered": snap["delivered"],
            "dropped": snap["dropped"],
            "pages_lost": snap["pages_lost"],
            "migrations": snap["migrations"],
            "conserved": self.drain_report["all_conserved"],
            "completions_digest": self.digest["completions"],
        }


def run_service(
    nodes: int = 144,
    design: str = "SF",
    ports: int | None = None,
    topology_seed: int = 0,
    seed: int = 0,
    tenants: int = 8,
    requests_per_tenant: int = 64,
    rate: float = 0.05,
    footprint_pages: int = 512,
    read_fraction: float = 0.7,
    size: int = 64,
    max_outstanding: int = 256,
    queue_depth: int = 512,
    node_watermark: int = 32,
    scale_at: int | None = None,
    scale_count: int = 0,
    scale_back_after: int | None = None,
    fault_at: int | None = None,
    fault_kind: str = "node_crash",
    fault_node: int | None = None,
    keep_service: bool = False,
    instrument=None,
) -> ServiceRunResult:
    """Run one deterministic multi-tenant load point against a fresh fabric.

    Builds the full service stack, drives the synthetic schedule
    through the shared ingestion path, drains to quiescence, and
    returns digest + conservation report + stats snapshot.
    ``instrument`` (if given) is called with the freshly built service
    before any request is driven — the observability layer calls
    ``service.install_probes`` here.
    """
    from repro.service.core import FabricService
    from repro.service.log import drive

    service = FabricService(
        nodes=nodes, design=design, ports=ports,
        topology_seed=topology_seed, seed=seed,
        footprint_pages=footprint_pages,
        max_outstanding=max_outstanding, queue_depth=queue_depth,
        node_watermark=node_watermark,
    )
    if instrument is not None:
        instrument(service)
    entries = synthetic_schedule(
        tenants=tenants, requests_per_tenant=requests_per_tenant,
        rate=rate, footprint_pages=footprint_pages,
        read_fraction=read_fraction, size=size, seed=seed,
        scale_at=scale_at, scale_count=scale_count,
        scale_back_after=scale_back_after,
        fault_at=fault_at, fault_kind=fault_kind, fault_node=fault_node,
    )
    drive(service, entries)
    drain_report = service.drain()
    return ServiceRunResult(
        digest=service.digest(),
        drain_report=drain_report,
        snapshot=service.snapshot(),
        service=service if keep_service else None,
    )
