"""Frozen experiment payloads: what :func:`execute_task` returns per kind.

``frozen_payloads.json`` was recorded before ``sim_params`` reached each
kind's runner by keyword name (when the worker still looked every key up
with a hand-copied default).  It pins the parameter plumbing between a
task and its runner, as the sha256 of the canonical JSON of
:func:`repro.experiments.worker.execute_task`'s payload, for every kind
at N=16-36 in two forms:

* ``<kind>/minimal`` — the fewest ``sim_params`` the kind needs, so
  every default (the runner's, or the kind's own sweep default where it
  differs on purpose) is in force;
* ``<kind>/full`` — every key the kind reads, each set to a value other
  than its default, including the coercions that reach the payload
  (``mirrored``/``qos`` given as ints, ``kinds`` as a list).

``churn`` is recorded once per schedule (``cycle``, ``periodic``,
``utilization``) and ``faults`` once per schedule (``random``,
``crash``); ``faults/empty_kinds`` pins that an empty ``kinds`` list
means every fault kind, and ``<kind>/unsupported`` the payload of a
point the design cannot realize.

Regenerate (only when one of these results intentionally changes)::

    PYTHONPATH=src python tests/experiments/frozen_payloads.py --write
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

FIXTURE = Path(__file__).parent / "frozen_payloads.json"

_SHORT = {"warmup": 40, "measure": 300, "drain_limit": 6000}

#: name -> ExperimentTask fields (``sim_params`` as a plain dict).
CASES: dict[str, dict[str, Any]] = {
    "synthetic/minimal": dict(kind="synthetic", design="SF", nodes=16, rate=0.1),
    "synthetic/full": dict(
        kind="synthetic",
        design="ODM",
        nodes=36,
        rate=0.2,
        seed=3,
        sim_params={"warmup": 50, "measure": 250, "drain_limit": 5000, "payload_bytes": 128},
    ),
    "saturation/minimal": dict(kind="saturation", design="SF", nodes=16, pattern="hotspot"),
    "saturation/full": dict(
        kind="saturation",
        design="DM",
        nodes=16,
        seed=1,
        pattern="hotspot",
        sim_params={
            "low_rate": 0.05,
            "latency_factor": 2.5,
            "accept_threshold": 0.9,
            "warmup": 40,
            "measure": 200,
            "drain_limit": 4000,
            "resolution": 0.1,
        },
    ),
    "workload/minimal": dict(kind="workload", design="SF", nodes=16, workload="redis"),
    "workload/full": dict(
        kind="workload",
        design="S2",
        nodes=25,
        seed=2,
        workload="grep",
        sim_params={
            "trace_accesses": 400,
            "trace_scale": 0.01,
            "trace_seed": 7,
            "max_cpu_accesses": 3000,
            "cpi": 1.5,
            "sockets": 2,
            "mlp": 4,
        },
    ),
    "path_stats/minimal": dict(kind="path_stats", design="SF", nodes=16),
    "path_stats/full": dict(
        kind="path_stats",
        design="SF",
        nodes=36,
        seed=4,
        sim_params={"use_two_hop": False, "sample_pairs": 300},
    ),
    **{
        f"churn/{schedule}/minimal": dict(
            kind="churn",
            design="SF",
            nodes=24,
            # The controller gates only under low utilization.
            rate=0.005 if schedule == "utilization" else 0.1,
            sim_params={"schedule": schedule} if schedule != "cycle" else {},
        )
        for schedule in ("cycle", "periodic", "utilization")
    },
    "churn/cycle/full": dict(
        kind="churn",
        design="SF",
        nodes=32,
        rate=0.12,
        seed=1,
        pattern="tornado",
        sim_params={
            "warmup": 100,
            "measure": 1200,
            "drain_limit": 20_000,
            "gate_fraction": 0.2,
            "schedule": "cycle",
            "gate_at": 300,
            "wake_at": 900,
            "payload_bytes": 32,
            "window": 100,
            "granularity_ns": 2000.0,
        },
    ),
    "churn/periodic/full": dict(
        kind="churn",
        design="SF",
        nodes=32,
        rate=0.1,
        seed=2,
        sim_params={
            "warmup": 100,
            "measure": 1600,
            "drain_limit": 20_000,
            "gate_fraction": 0.15,
            "schedule": "periodic",
            "start": 200,
            "period": 500,
            "duty": 0.4,
            "cycles": 3,
            "payload_bytes": 128,
            "window": 150,
        },
    ),
    "churn/utilization/full": dict(
        kind="churn",
        design="SF",
        nodes=36,
        rate=0.03,
        seed=3,
        sim_params={
            "warmup": 100,
            "measure": 3000,
            "drain_limit": 20_000,
            "gate_fraction": 0.3,
            "schedule": "utilization",
            "interval": 600,
            "low_util": 0.05,
            "high_util": 0.4,
            "gate_step": 3,
            "min_active_fraction": 0.6,
            "window": 250,
            "granularity_ns": 1000.0,
        },
    ),
    "migration/minimal": dict(kind="migration", design="SF", nodes=16, rate=0.05),
    "migration/full": dict(
        kind="migration",
        design="SF",
        nodes=32,
        rate=0.08,
        seed=1,
        sim_params={
            "gate_fraction": 0.2,
            "gate_at": 400,
            "wake_at": 1800,
            "footprint_pages": 48,
            "page_bytes": 2048,
            "rate_limit": 64.0,
            "max_inflight_pages": 2,
            "chunk_bytes": 256,
            "mode": "teleport",
            "warmup": 100,
            "measure": 2500,
            "drain_limit": 30_000,
        },
    ),
    **{
        f"faults/{schedule}/minimal": dict(
            kind="faults",
            design="SF",
            nodes=16,
            rate=0.05,
            sim_params={"schedule": schedule} if schedule != "random" else {},
        )
        for schedule in ("random", "crash")
    },
    "faults/random/full": dict(
        kind="faults",
        design="DM",
        nodes=36,
        rate=0.06,
        seed=2,
        sim_params={
            "schedule": "random",
            "fault_rate": 0.003,
            "kinds": ["link_flap", "node_hang"],
            "flap_cycles": 200,
            "hang_cycles": 300,
            "max_crashes": 2,
            "detection_timeout": 120,
            "retransmit_timeout": 48,
            "max_retries": 6,
            "footprint_pages": 24,
            "page_bytes": 2048,
            "mirrored": 0,
            "mig_rate_limit": 32.0,
            "warmup": 100,
            "measure": 2000,
            "drain_limit": 30_000,
            "payload_bytes": 32,
            "window": 100,
        },
    ),
    "faults/crash/full": dict(
        kind="faults",
        design="SF",
        nodes=36,
        rate=0.08,
        seed=1,
        sim_params={
            "schedule": "crash",
            "crash_at": 700,
            "detection_timeout": 150,
            "footprint_pages": 36,
            "mirrored": 1,
            "warmup": 150,
            "measure": 2000,
            "drain_limit": 30_000,
        },
    ),
    "faults/empty_kinds": dict(
        kind="faults",
        design="SF",
        nodes=16,
        rate=0.05,
        sim_params={**_SHORT, "fault_rate": 0.004, "kinds": []},
    ),
    "service/minimal": dict(kind="service", design="SF", nodes=36, rate=0.05),
    "service/full": dict(
        kind="service",
        design="SF",
        nodes=36,
        rate=0.1,
        seed=2,
        sim_params={
            "tenants": 4,
            "requests_per_tenant": 40,
            "footprint_pages": 64,
            "read_fraction": 0.5,
            "size": 128,
            "max_outstanding": 16,
            "queue_depth": 24,
            "node_watermark": 4,
            "scale_at": 100,
            "scale_count": 3,
            "scale_back_after": 300,
            "fault_at": 500,
            "fault_kind": "node_hang",
            "fault_node": 5,
        },
    ),
    **{
        f"{kind}/minimal": dict(kind=kind, design="SF", nodes=16, rate=0.1)
        for kind in ("interference", "anatomy")
    },
    **{
        f"{kind}/full": dict(
            kind=kind,
            design="SF",
            nodes=36,
            rate=0.2,
            seed=1,
            pattern="tornado",
            sim_params={
                "mode": "burst",
                "fg_rate": 0.03,
                "qos": 0,
                "warmup": 100,
                "measure": 800,
                "drain_limit": 20_000,
                "payload_bytes": 32,
                "noise_fraction": 0.3,
                "hotspot_count": 2,
                "burst_period": 128,
                "burst_duty": 0.5,
                "incast_degree": 8,
                "incast_period": 32,
            },
        )
        for kind in ("interference", "anatomy")
    },
    # Points a design cannot realize are data: their payloads are pinned too.
    **{
        f"{kind}/unsupported": dict(kind=kind, design=design, nodes=nodes, rate=0.1)
        for kind, design, nodes in (
            ("synthetic", "DM", 17),
            ("saturation", "DM", 17),
            ("path_stats", "DM", 16),
            ("churn", "DM", 16),
            ("migration", "S2", 16),
            ("faults", "S2", 16),
            ("service", "DM", 17),
            ("interference", "DM", 17),
        )
    },
    "workload/unsupported": dict(kind="workload", design="DM", nodes=17, workload="redis"),
}


def sha(payload: Any) -> str:
    """sha256 of the canonical JSON form of *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def task_for(name: str):
    """The :class:`ExperimentTask` of case *name*."""
    from repro.experiments.spec import ExperimentTask, freeze_params

    fields = dict(CASES[name])
    fields.setdefault("pattern", "uniform_random")
    fields["sim_params"] = freeze_params(fields.get("sim_params"))
    return ExperimentTask(**fields)


def capture(name: str) -> str:
    """The digest of case *name* as the current code computes it."""
    from repro.experiments.memo import clear_memo
    from repro.experiments.worker import execute_task

    try:
        return sha(execute_task(task_for(name)))
    finally:
        clear_memo()


if __name__ == "__main__":
    import sys

    data = {name: capture(name) for name in CASES}
    if "--write" in sys.argv:
        FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE}")
    else:
        print(json.dumps(data, indent=1, sort_keys=True))
