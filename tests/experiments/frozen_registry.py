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
  ``repro trace`` and ``repro sweep``;
* ``sweep_flags`` — every parser action of the five sweep subcommands:
  option strings, dest, default, const, choices, help and metavar (the
  fields, not the rendered ``--help``, which differs across Pythons);
* ``sweep_specs`` — for each argv of :data:`SWEEP_ARGVS`, every spec the
  command hands ``_run_spec_command`` as (name, ``spec_hash()``, task
  keys), plus the names of its report and summary callables.  A
  recorder stands in for ``_run_spec_command``, so nothing simulates.

Regenerate (only when one of these surfaces intentionally changes),
naming the keys to re-record; the others keep their recorded bytes::

    PYTHONPATH=src python tests/experiments/frozen_registry.py \
        --write sweep_flags sweep_specs
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


#: The sweep subcommands, whose flags and specs are pinned.
SWEEP_COMMANDS = ("sweep", "churn", "migrate", "faults", "interference")

#: Spec files ``repro sweep --spec`` reads in :data:`SWEEP_ARGVS`,
#: substituted for ``{name}`` placeholders: the README and LATENCY.md
#: demos and the spec of ``tests/test_cli.py``.
SPEC_FILES = {
    "my_sweep": {
        "name": "demo", "kind": "synthetic", "designs": ["SF", "ODM"],
        "nodes": [64], "patterns": ["uniform_random"], "rates": [0.1],
        "seeds": [0],
    },
    "anatomy_spec": {
        "name": "anatomy-demo", "kind": "anatomy",
        "designs": ["SF"], "nodes": [36], "rates": [0.2], "seeds": [0],
        "sim_params": {"warmup": 60, "measure": 300, "drain_limit": 8000,
                       "mode": "incast"},
    },
    "filed": {
        "name": "filed", "kind": "path_stats", "designs": ["SF"],
        "nodes": [24], "seeds": [1], "sim_params": {"sample_pairs": 100},
    },
}

#: The sweep command lines the CLI serves: every one in README.md,
#: docs/*.md, tests/test_cli.py and the CI workflow (cache and output
#: flags dropped; they shape no spec), and one per collapse or
#: conversion rule.
SWEEP_ARGVS = (
    # README.md and docs/*.md
    "churn --nodes 64 --gate-fraction 0.25",
    "migrate --nodes 64 --gate-fraction 0.25",
    "faults --nodes 64 --designs SF",
    "interference --nodes 36 --rates 0.3 --baseline",
    "sweep --designs SF,ODM --nodes 64 --rates 0.05,0.2,0.4 --workers 4",
    "sweep --kind saturation --designs DM,SF --nodes 36,64",
    "sweep --kind workload --workloads redis,grep --designs SF,ODM",
    "sweep --kind path_stats --designs SF --nodes 64,128",
    "sweep --spec {my_sweep} --workers 0",
    "faults --nodes 64",
    "faults --designs SF --nodes 648 --schedule crash",
    "faults --fault-rates 0.0005,0.002 --detection-timeouts 100,400",
    "sweep --kind service --designs SF --nodes 64 --rates 0.05",
    "interference --designs SF,DM --nodes 36 --modes incast"
    " --rates 0.1,0.4 --measure 800 --baseline",
    "sweep --kind service --designs SF --nodes 64 --rates 0.05 --no-cache",
    "sweep --spec {anatomy_spec} --no-cache",
    # tests/test_cli.py
    "sweep --designs SF,DM --rates 0.1,0.2",
    "faults --nodes 64 --schedule crash",
    "sweep --designs SF,DM --nodes 16 --rates 0.05,0.1 --warmup 30"
    " --measure 80 --drain-limit 2000",
    "churn --nodes 32 --gate-fraction 0.2 --rates 0.1 --warmup 150"
    " --measure 1500 --drain-limit 20000",
    "migrate --nodes 32 --gate-fraction 0.25 --rates 0.08 --rate-limits 64"
    " --footprint-pages 64 --warmup 150 --measure 2000 --drain-limit 30000",
    "migrate --nodes 32 --mode teleport --rates 0.08 --footprint-pages 64"
    " --warmup 150 --measure 1500 --drain-limit 20000",
    "faults --designs SF --nodes 32 --schedule crash --rates 0.08"
    " --footprint-pages 32 --warmup 150 --measure 2500 --drain-limit 30000",
    "faults --designs SF,DM --nodes 32 --rates 0.08 --footprint-pages 0"
    " --warmup 150 --measure 2000 --drain-limit 20000",
    "sweep --kind path_stats --nodes 16 --warmup 5",
    "sweep --spec {filed} --no-cache",
    # .github/workflows/ci.yml
    "sweep --designs SF,DM --nodes 16 --rates 0.05,0.1 --warmup 50"
    " --measure 150 --drain-limit 4000 --workers 2",
    "churn --nodes 32 --gate-fraction 0.25 --rates 0.1 --warmup 150"
    " --measure 1500 --drain-limit 20000 --workers 2",
    "migrate --nodes 32 --gate-fraction 0.25 --rates 0.08 --rate-limits 64"
    " --footprint-pages 64 --warmup 150 --measure 2000 --drain-limit 30000"
    " --workers 2",
    "faults --nodes 32 --rates 0.08 --footprint-pages 32 --warmup 150"
    " --measure 2500 --drain-limit 30000 --workers 2",
    "faults --designs SF --nodes 32 --schedule crash --rates 0.08"
    " --footprint-pages 32 --warmup 150 --measure 2500 --drain-limit 30000"
    " --workers 2",
    "sweep --kind service --designs SF,S2,DM --nodes 36 --rates 0.1"
    " --workers 2",
    "interference --designs SF,DM --nodes 36 --modes incast --rates 0.1,0.4"
    " --baseline --warmup 200 --measure 800 --workers 2",
    "migrate --nodes 1296 --mode migrate --seeds 0 --rates 0.1"
    " --rate-limits 128 --footprint-pages 1296 --warmup 300 --measure 2000"
    " --drain-limit 80000 --workers 1 --no-cache",
    # every default, and each collapse and conversion rule
    "sweep", "churn", "migrate", "faults", "interference",
    "migrate --mode both --rate-limits 16,64 --page-bytes 2048,4096",
    "migrate --mode teleport --rate-limits 16,64 --page-bytes 2048,4096",
    "faults --schedule crash --fault-rates 0.001,0.002"
    " --detection-timeouts 100,400",
    "faults --no-mirror --kinds link_down",
    "interference --no-qos",
    "interference --baseline",
    "interference --no-qos --baseline",
    "interference --modes noise,incast",
    "sweep --kind workload --workloads redis,grep",
    "churn --ports 4 --topology-seed 3 --seeds 0,1 --schedule periodic"
    " --pattern tornado",
)


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


def _subparser(command: str):
    from repro.cli import build_parser

    return next(
        action for action in build_parser()._actions
        if action.dest == "command"
    ).choices[command]


def sweep_flags() -> dict[str, list[dict[str, Any]]]:
    """Every parser action of each sweep subcommand, in parser order."""
    return {
        command: [
            {
                "option_strings": list(action.option_strings),
                "dest": action.dest,
                "default": action.default,
                "const": action.const,
                "choices": (
                    None if action.choices is None else list(action.choices)
                ),
                "help": action.help,
                "metavar": action.metavar,
            }
            for action in _subparser(command)._actions
        ]
        for command in SWEEP_COMMANDS
    }


def sweep_specs() -> dict[str, dict[str, Any]]:
    """What each argv of :data:`SWEEP_ARGVS` hands ``_run_spec_command``."""
    import tempfile
    from unittest import mock

    import repro.cli

    calls: list[dict[str, Any]] = []

    def record(args, specs, report=None, summary=None) -> int:
        calls.append({
            "specs": [
                [spec.name, spec.spec_hash(),
                 [task.key() for task in spec.tasks()]]
                for spec in specs
            ],
            "report": None if report is None else report.__name__,
            "summary": None if summary is None else summary.__name__,
        })
        return 0

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, data in SPEC_FILES.items():
            files[name] = Path(tmp) / f"{name}.json"
            files[name].write_text(json.dumps(data))
        with mock.patch.object(repro.cli, "_run_spec_command", record):
            for argv in SWEEP_ARGVS:
                calls.clear()
                assert repro.cli.main(argv.format(**files).split()) == 0
                (out[argv],) = calls
    return out


def capture() -> dict[str, Any]:
    return {
        "task_keys": task_keys(),
        "sweep_table": sweep_table_text(),
        "parse_defaults": parse_defaults(),
        "trace_kinds": choices("trace", "kind"),
        "sweep_kinds": choices("sweep", "kind"),
        "sweep_flags": sweep_flags(),
        "sweep_specs": sweep_specs(),
    }


if __name__ == "__main__":
    import sys

    data = capture()
    if "--write" in sys.argv:
        keys = sys.argv[sys.argv.index("--write") + 1:] or list(data)
        recorded = json.loads(FIXTURE.read_text())
        recorded.update({key: data[key] for key in keys})
        FIXTURE.write_text(
            json.dumps(recorded, indent=1, sort_keys=True) + "\n"
        )
        print(f"wrote {', '.join(keys)} to {FIXTURE}")
    else:
        print(json.dumps(data, indent=1, sort_keys=True))
