"""Frozen engine surface: task keys, report text and CLI parse defaults.

``frozen_registry.json`` was recorded before the experiment kinds moved
into one registry (:mod:`repro.experiments.kinds`).  It pins what that
refactor must not change:

* ``task_keys`` — the expansion order, labels and cache keys of a
  multi-kind grid covering every experiment kind;
* ``sweep_table`` — the rendered report for hand-built payloads of every
  kind, including ``unsupported`` rows, missing fields and ``obs_``
  auto-columns;
* ``parse_defaults`` — ``vars(parse_args([cmd]))`` for every CLI
  subcommand;
* ``trace_kinds`` / ``sweep_kinds`` — the ``--kind`` choices of
  ``repro trace`` and ``repro sweep``.

Regenerate (only when one of these surfaces intentionally changes)::

    PYTHONPATH=src python tests/experiments/frozen_registry.py --write
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

FIXTURE = Path(__file__).parent / "frozen_registry.json"

KINDS = (
    "synthetic", "saturation", "workload", "path_stats", "churn",
    "migration", "faults", "service", "interference", "anatomy",
)

#: One argv per subcommand (positional names where the parser needs one).
COMMANDS: dict[str, list[str]] = {
    "topology": ["topology", "SF"],
    "simulate": ["simulate", "SF"],
    "workload": ["workload", "SF"],
    "reconfigure": ["reconfigure"],
    "sweep": ["sweep"],
    "churn": ["churn"],
    "migrate": ["migrate"],
    "faults": ["faults"],
    "interference": ["interference"],
    "trace": ["trace"],
    "hotspots": ["hotspots"],
    "serve": ["serve"],
}


def grid_specs() -> list:
    """One spec per kind, every axis two deep (ignored axes included)."""
    from repro.experiments import ExperimentSpec

    return [
        ExperimentSpec(
            name=f"frozen-{kind}",
            kind=kind,
            designs=("SF", "DM"),
            nodes=(16, 36),
            patterns=("uniform_random", "tornado"),
            rates=(0.1, 0.25),
            seeds=(0, 3),
            workloads=("redis", "grep"),
            topology_seed=2,
            sim_params={"warmup": 50, "kinds": ["link_down", "node_hang"]},
            topology_params={"ports": 4},
        )
        for kind in KINDS
    ]


def task_keys() -> list[list[str]]:
    return [
        [task.label(), task.key()]
        for spec in grid_specs()
        for task in spec.tasks()
    ]


def _full_payload() -> dict[str, Any]:
    """Every field any kind's report reads, with mixed value types."""
    return {
        "avg_latency": 41.237, "p95_latency": 88.5, "avg_hops": 3.456,
        "accepted_rate": 0.98765, "saturation_rate": 0.35,
        "throughput_ops_per_kcycle": 123.45, "avg_read_latency": 77.01,
        "runtime_cycles": 9876, "num_events": 2, "max_peak_ratio": 1.875,
        "max_recovery_cycles": 412, "parked_total": 7, "sent": 1000,
        "delivered": 1000, "mode": "migrate", "pages_moved": 32,
        "bytes_moved": 131072, "migration_makespan": 5120,
        "fg_p99_overall": 250.25, "fg_slowdown_p99": 1.5, "fg_stalled": 3,
        "fg_issued": 400, "fg_completed": 400, "page_conservation": True,
        "num_faults": 4, "lost": 12, "retransmits": 11,
        "fg_p50_during": 60.4, "fg_p99_during": 310.6,
        "unreachable_node_cycles": 900, "pages_lost": 0,
        "all_conserved": True, "submitted": 512, "completed": 500,
        "shed": 12, "queued_total": 40, "requests_per_kcycle": 64.25,
        "p50": 120.5, "p99": 480.49, "p99_max": 512.0, "conserved": True,
        "qos": True, "fg_p50": 30.0, "fg_p99": 95.5, "bulk_p50": 140.0,
        "bulk_p99": 610.2, "p99_ratio": 6.39, "deadlock_recoveries": 0,
        "drained": True, "mean_hops": 2.875, "p90_hops": 4.0,
        "max_hops": 6, "obs_events": 4321, "obs_frac_router": 0.125,
    }


def _broken_payload() -> dict[str, Any]:
    """Conservation broken, some fields missing, other obs_ keys."""
    payload = _full_payload()
    for key in ("avg_latency", "mode", "p99", "fg_p99", "mean_hops",
                "saturation_rate", "runtime_cycles", "obs_events",
                "obs_frac_router"):
        del payload[key]
    payload.update(
        delivered=998, fg_completed=399, page_conservation=0,
        all_conserved=False, conserved=False, drained=False, qos=False,
        bytes_moved=1000, obs_q_hw=17,
    )
    return payload


def table_pairs() -> list:
    """(task, payload) rows: full, broken and unsupported per kind."""
    from repro.experiments import ExperimentSpec

    payloads = (
        _full_payload(),
        _broken_payload(),
        {"unsupported": True, "error": "no such scale"},
    )
    pairs = []
    for kind in KINDS:
        spec = ExperimentSpec(
            name=f"table-{kind}", kind=kind, designs=("SF",), nodes=(16,),
            rates=(0.1,), seeds=(0, 1, 2), workloads=("redis",),
        )
        pairs.extend(zip(spec.tasks(), payloads))
    return pairs


def sweep_table_text() -> str:
    from repro.experiments.report import sweep_table

    return sweep_table(table_pairs())


def choices(subcommand: str, dest: str) -> list[str]:
    from repro.cli import build_parser

    parser = build_parser()
    sub = next(
        action for action in parser._actions
        if action.dest == "command"
    ).choices[subcommand]
    return list(next(a for a in sub._actions if a.dest == dest).choices)


def parse_defaults() -> dict[str, dict[str, Any]]:
    from repro.cli import build_parser

    return {
        name: vars(build_parser().parse_args(argv))
        for name, argv in COMMANDS.items()
    }


def capture() -> dict[str, Any]:
    return {
        "task_keys": task_keys(),
        "sweep_table": sweep_table_text(),
        "parse_defaults": parse_defaults(),
        "trace_kinds": choices("trace", "kind"),
        "sweep_kinds": choices("sweep", "kind"),
    }


if __name__ == "__main__":
    import sys

    data = capture()
    if "--write" in sys.argv:
        FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE}")
    else:
        print(json.dumps(data, indent=1, sort_keys=True))
