"""Frozen request-path results: payload digests of every directory user.

``frozen_requests.json`` was recorded before the directory-backed
memory-request lifecycle (resolve, local/remote, serve / stall /
forward / lost, DRAM service, response) moved out of the migration
foreground and the fabric service into one shared path.  It pins what
that refactor must not change, as the sha256 of the canonical JSON of:

* ``migration/<mode>/seed<k>`` — :func:`run_migration`'s full
  ``payload()`` in ``migrate`` and ``teleport`` modes, two seeds each;
* ``faults/crash/<mirrored|unmirrored>`` — :func:`run_faults` with one
  node crash and a page layer, with and without replicas;
* ``faults/dm/crash`` — the same crash on a DM mesh with a page
  layer (graph repair instead of table repair);
* ``faults/sf/random`` — a random link flap/down and crash schedule on
  String Figure, so a table repair is re-imposed after the crash
  excision's reconfiguration completes;
* ``churn`` — :func:`run_churn` (no page layer: it must not move at
  all);
* ``churn/controller`` — :func:`run_churn` driven by the utilization
  controller, which reads the power manager's granularity;
* ``service/<classless|qos|dm>`` — a synthetic multi-tenant schedule
  with scale-down, scale-up and an unmirrored node crash driven through
  a :class:`FabricService` (tight admission, so requests queue, shed and
  time out), covering the completion ``digest()``, the drain report,
  ``snapshot()``, ``latency_summary()`` and ``class_summary()``.  The QoS run maps
  tenants onto every class and installs the probes and slow log; the DM
  run refuses the scale verbs and repairs the crash on the mesh graph.

Regenerate (only when one of these results intentionally changes)::

    PYTHONPATH=src python tests/memory/frozen_requests.py --write
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

FIXTURE = Path(__file__).parent / "frozen_requests.json"


def sha(payload: Any) -> str:
    """sha256 of the canonical JSON form of *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def migration_payload(mode: str, seed: int) -> dict[str, Any]:
    from repro.core.topology import StringFigureTopology
    from repro.workloads.migration import run_migration

    topo = StringFigureTopology(32, 4, seed=11)
    result = run_migration(
        topo,
        rate=0.1,
        gate_fraction=0.25,
        footprint_pages=64,
        warmup=200,
        measure=2500,
        seed=seed,
        mode=mode,
    )
    return result.payload()


def faults_payload(mirrored: bool, design: str = "SF") -> dict[str, Any]:
    from repro.topologies.registry import make_topology
    from repro.workloads.faults import run_faults

    topo = make_topology(design, 36, seed=0)
    result = run_faults(
        topo,
        rate=0.08,
        schedule="crash",
        footprint_pages=72,
        mirrored=mirrored,
        warmup=150,
        measure=2500,
        drain_limit=30_000,
        seed=2,
    )
    return result.payload()


def random_faults_payload() -> dict[str, Any]:
    from repro.topologies.registry import make_topology
    from repro.workloads.faults import run_faults

    topo = make_topology("SF", 36, seed=0)
    result = run_faults(
        topo,
        rate=0.08,
        schedule="random",
        kinds=("link_flap", "link_down", "node_crash"),
        fault_rate=0.003,
        warmup=150,
        measure=2500,
        drain_limit=30_000,
        seed=0,
    )
    return result.payload()


def churn_payload() -> dict[str, Any]:
    from repro.topologies.registry import make_topology
    from repro.workloads.churn import ChurnSchedule, run_churn

    topo = make_topology("SF", 48, seed=7)
    result = run_churn(
        topo,
        rate=0.15,
        schedule=ChurnSchedule.cycle(gate_at=400, wake_at=800, fraction=0.25),
        warmup=100,
        measure=1200,
        drain_limit=100_000,
        seed=7,
    )
    return result.payload()


def controller_churn_payload() -> dict[str, Any]:
    from repro.topologies.registry import make_topology
    from repro.workloads.churn import run_churn

    topo = make_topology("SF", 48, seed=5)
    result = run_churn(
        topo,
        rate=0.03,
        controller_params=dict(interval=800, low_util=0.05, high_util=0.5, gate_step=4),
        warmup=200,
        measure=4000,
        seed=1,
        granularity_ns=4000.0,
    )
    return {**result.payload(), "controller_log": result.controller_log}


def service_payload(qos: bool, design: str = "SF") -> dict[str, Any]:
    from repro.service.core import FabricService
    from repro.workloads.service import synthetic_schedule

    service = FabricService(
        nodes=36,
        design=design,
        footprint_pages=48,
        mirrored=False,
        max_outstanding=24,
        queue_depth=24,
        node_watermark=4,
        seed=3,
        qos=qos,
        tenant_classes={"client-1": 1, "client-2": 2} if qos else None,
        slow_log_threshold=400 if qos else None,
    )
    if qos:
        service.install_probes()
    entries = synthetic_schedule(
        tenants=6,
        requests_per_tenant=200,
        rate=0.1,
        footprint_pages=48,
        read_fraction=0.6,
        size=64,
        seed=3,
        scale_at=200,
        scale_count=6,
        scale_back_after=500,
        fault_at=1400,
        fault_kind="node_crash",
        fault_node=14,
    )
    # The unmirrored crash destroys pages: requests in flight for them
    # fail ``page_lost``.  Later submissions for a lost page are left
    # out, so the schedule also runs where such a submission raised.
    for entry in entries:
        service.advance_to(entry["t"])
        if entry["kind"] == "control":
            service.apply_control(entry)
        elif entry["page"] not in service.directory.lost:
            service.submit(
                entry["tenant"],
                entry["op"],
                entry["page"],
                size=entry["size"],
                req_id=entry["req_id"],
            )
    drain = service.drain()
    return {
        "digest": service.digest(),
        "drain": drain,
        "snapshot": service.snapshot(),
        "latency_summary": service.latency_summary(),
        "class_summary": service.class_summary(),
    }


SCENARIOS = {
    **{
        f"migration/{mode}/seed{seed}": (migration_payload, (mode, seed))
        for mode in ("migrate", "teleport")
        for seed in (0, 5)
    },
    "faults/crash/mirrored": (faults_payload, (True,)),
    "faults/crash/unmirrored": (faults_payload, (False,)),
    "faults/dm/crash": (faults_payload, (True, "DM")),
    "faults/sf/random": (random_faults_payload, ()),
    "churn": (churn_payload, ()),
    "churn/controller": (controller_churn_payload, ()),
    "service/classless": (service_payload, (False,)),
    "service/qos": (service_payload, (True,)),
    "service/dm": (service_payload, (False, "DM")),
}


def capture(name: str) -> str:
    """The digest of scenario *name* as the current code computes it."""
    build, args = SCENARIOS[name]
    return sha(build(*args))


if __name__ == "__main__":
    import sys

    data = {name: capture(name) for name in SCENARIOS}
    if "--write" in sys.argv:
        FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE}")
    else:
        print(json.dumps(data, indent=1, sort_keys=True))
