"""Determinism regression: worker count cannot change sweep results.

The engine's core guarantee — tasks are pure functions of their spec
fields with explicit seeds — means a sweep must produce bit-identical
payloads whether it runs in-process or across a multiprocessing pool,
fresh or with warm per-process memo caches.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentSpec, ParallelRunner, clear_memo
from repro.experiments import runner as runner_module

SPEC = ExperimentSpec(
    name="determinism",
    kind="synthetic",
    designs=("SF", "DM"),
    nodes=(16,),
    patterns=("uniform_random", "tornado"),
    rates=(0.05, 0.15),
    seeds=(6,),
    topology_seed=4,
    sim_params={"warmup": 30, "measure": 80, "drain_limit": 2000},
)


def test_serial_and_parallel_payloads_identical():
    serial = ParallelRunner(workers=1).run(SPEC)
    parallel = ParallelRunner(workers=4).run(SPEC)
    assert [t.key() for t in serial.tasks] == [t.key() for t in parallel.tasks]
    for task, payload in serial:
        assert parallel.payload(task) == payload, task.label()


def test_repeat_runs_identical_with_warm_memo(monkeypatch):
    clear_memo()
    monkeypatch.setattr(runner_module, "KEEP_MEMO", True)
    runner = ParallelRunner(workers=1)
    cold = runner.run(SPEC)
    # Second serial run reuses memoized topologies/policies in-process;
    # reuse must be observationally invisible.
    warm = runner.run(SPEC)
    for task, payload in cold:
        assert warm.payload(task) == payload, task.label()
    clear_memo()


@pytest.mark.slow
def test_churn_sweep_deterministic_across_workers():
    """Live reconfiguration is still a pure function of the task.

    Churn tasks build fresh topologies (never the shared memos) and
    mutate them mid-run, so this pins the strongest engine guarantee:
    stateful gate/wake sequences produce bit-identical payloads at any
    worker count.
    """
    spec = ExperimentSpec(
        name="determinism-churn",
        kind="churn",
        designs=("SF",),
        nodes=(32, 48),
        patterns=("uniform_random",),
        rates=(0.08, 0.15),
        seeds=(3,),
        topology_seed=5,
        sim_params={"warmup": 150, "measure": 2500, "drain_limit": 30_000,
                    "gate_fraction": 0.2},
    )
    serial = ParallelRunner(workers=1).run(spec)
    parallel = ParallelRunner(workers=4).run(spec)
    assert [t.key() for t in serial.tasks] == [t.key() for t in parallel.tasks]
    for task, payload in serial:
        assert parallel.payload(task) == payload, task.label()
        # Conservation holds at every grid point, under both modes.
        assert payload["sent"] == payload["delivered"], task.label()


def test_workload_replay_deterministic_across_workers():
    spec = ExperimentSpec(
        name="determinism-workload",
        kind="workload",
        designs=("SF", "DM"),
        nodes=(16,),
        workloads=("grep",),
        topology_seed=3,
        sim_params={"trace_accesses": 200, "trace_scale": 0.01,
                    "trace_seed": 7},
    )
    serial = ParallelRunner(workers=1).run(spec)
    parallel = ParallelRunner(workers=4).run(spec)
    for task, payload in serial:
        assert parallel.payload(task) == payload, task.label()


def test_faults_sweep_deterministic_across_workers():
    """Unplanned failures are still a pure function of the task.

    Fault times, victim picks, detection actions, retransmissions, and
    crash recovery all derive from the task seeds, so a faults sweep
    must produce bit-identical payloads at any worker count — and the
    loss-conservation law must hold at every grid point.
    """
    spec = ExperimentSpec(
        name="determinism-faults",
        kind="faults",
        designs=("SF", "DM"),
        nodes=(32,),
        patterns=("uniform_random",),
        rates=(0.08,),
        seeds=(2, 5),
        topology_seed=4,
        sim_params={"warmup": 150, "measure": 2000, "drain_limit": 30_000,
                    "fault_rate": 0.003, "footprint_pages": 32,
                    "detection_timeout": 150},
    )
    serial = ParallelRunner(workers=1).run(spec)
    parallel = ParallelRunner(workers=4).run(spec)
    assert [t.key() for t in serial.tasks] == [t.key() for t in parallel.tasks]
    for task, payload in serial:
        assert parallel.payload(task) == payload, task.label()
        assert payload["sent"] == payload["delivered"] + payload["lost"], (
            task.label()
        )
        assert payload["page_conservation"], task.label()


def test_migration_sweep_deterministic_across_workers():
    """Data migration is still a pure function of the task.

    Migration tasks thread page moves through the event loop as real
    traffic racing the foreground load, so this pins that the whole
    engine (delta computation, rate-limited issue, stall/forward
    rulings) is deterministic at any worker count — and that both
    conservation invariants hold at every grid point.
    """
    spec = ExperimentSpec(
        name="determinism-migration",
        kind="migration",
        designs=("SF",),
        nodes=(32,),
        patterns=("uniform_random",),
        rates=(0.06, 0.1),
        seeds=(3,),
        topology_seed=5,
        sim_params={"warmup": 150, "measure": 2000, "drain_limit": 30_000,
                    "gate_fraction": 0.25, "footprint_pages": 64,
                    "rate_limit": 64.0},
    )
    serial = ParallelRunner(workers=1).run(spec)
    parallel = ParallelRunner(workers=4).run(spec)
    assert [t.key() for t in serial.tasks] == [t.key() for t in parallel.tasks]
    for task, payload in serial:
        assert parallel.payload(task) == payload, task.label()
        assert payload["sent"] == payload["delivered"], task.label()
        assert payload["fg_issued"] == payload["fg_completed"], task.label()
        assert payload["page_conservation"], task.label()
