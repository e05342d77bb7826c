"""The ``service`` experiment kind: expansion, worker, report row."""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentSpec, ParallelRunner
from repro.experiments.report import sweep_table
from repro.experiments.worker import execute_task


def make_spec(**overrides):
    params = dict(
        name="svc-test",
        kind="service",
        designs=("SF",),
        nodes=(36,),
        rates=(0.1,),
        seeds=(0,),
        sim_params={
            "tenants": 4, "requests_per_tenant": 12, "footprint_pages": 64,
        },
    )
    params.update(overrides)
    return ExperimentSpec(**params)


def test_grid_expansion_matches_synthetic_axes():
    spec = make_spec(nodes=(36, 64), seeds=(0, 1))
    tasks = spec.tasks()
    assert len(tasks) == 4
    assert all(t.kind == "service" for t in tasks)


def test_worker_produces_conserved_payload():
    task = make_spec().tasks()[0]
    payload = execute_task(task)
    assert payload["submitted"] == 48
    assert payload["conserved"] is True
    assert payload["completed"] + payload["shed"] + payload["timeouts"] >= 48 - payload["shed"]
    assert "completions_digest" in payload


def test_payload_deterministic_across_runs():
    task = make_spec().tasks()[0]
    assert execute_task(task) == execute_task(task)


def test_unsupported_design_reported_not_raised():
    task = make_spec(designs=("DM",), nodes=(7,)).tasks()[0]
    payload = execute_task(task)
    assert payload.get("unsupported")


def test_sweep_table_renders_service_section():
    spec = make_spec()
    result = ParallelRunner(workers=1, cache=None).run(spec)
    table = sweep_table(result)
    assert "req/kcyc" in table and "conserved" in table


def test_unread_topology_param_refused():
    task = make_spec(topology_params={"cord_bits": 5}).tasks()[0]
    with pytest.raises(TypeError, match="kind 'service'.*'cord_bits'"):
        execute_task(task)


def test_ports_topology_param_runs():
    # SF-36 has 4 ports by default, so only a different count changes
    # the run.
    default = execute_task(make_spec().tasks()[0])
    four = execute_task(make_spec(topology_params={"ports": 4}).tasks()[0])
    six = execute_task(make_spec(topology_params={"ports": 6}).tasks()[0])
    assert four == default
    assert six["conserved"] is True and six != default
