"""The one fabric assembly: which sub-stacks each choice of settings builds."""

from __future__ import annotations

import pytest

from repro.fabric import build_fabric
from repro.network.qos import BACKGROUND_CLASS
from repro.topologies.registry import make_topology


def test_reconfiguration_only():
    fabric = build_fabric(make_topology("SF", 36, seed=0), granularity_ns=4000.0)
    assert fabric.sim.config.emergency_stall_threshold == 16
    assert fabric.live is not None and fabric.live.migrator is None
    assert fabric.live.power.granularity_ns == 4000.0
    assert fabric.engine is None and fabric.directory is None
    assert fabric.layer is None and fabric.detector is None


def test_page_layer_feeds_the_reconfigurator():
    fabric = build_fabric(make_topology("SF", 36, seed=0), footprint_pages=36, mode="teleport")
    assert fabric.live.migrator is fabric.engine
    assert fabric.engine.mode == "teleport"
    assert fabric.engine.tclass == 0
    assert len(fabric.directory.pages) == 36


def test_baseline_fault_stack_repairs_the_graph():
    fabric = build_fabric(make_topology("DM", 36), footprint_pages=36, faults=True)
    assert fabric.live is None
    assert fabric.recovery.graph_repair is fabric.detector.repair
    assert fabric.recovery.engine is fabric.engine
    assert fabric.layer.retransmit_class is None


def test_string_figure_fault_stack_rides_the_reconfigurator():
    fabric = build_fabric(make_topology("SF", 36, seed=0), faults=True, qos=True)
    assert fabric.recovery.graph_repair is None
    assert fabric.recovery.live is fabric.live
    # Recovery reacts to a completed reconfiguration before the
    # detector re-imposes failed links.
    assert fabric.live.on_complete == [
        fabric.recovery._on_live_event,
        fabric.detector._on_reconfig_complete,
    ]
    assert fabric.qos is not None
    assert fabric.layer.retransmit_class == BACKGROUND_CLASS


def test_s2_fault_stack_refused():
    with pytest.raises(ValueError, match="requires shortcut wires"):
        build_fabric(make_topology("S2", 36, seed=0), faults=True)


def test_s2_service_refused():
    from repro.service.core import FabricService

    with pytest.raises(ValueError, match="requires shortcut wires"):
        FabricService(nodes=36, design="S2", footprint_pages=64)


def test_s2_service_sweep_point_unsupported():
    from repro.experiments import ExperimentSpec
    from repro.experiments.worker import execute_task

    spec = ExperimentSpec(
        name="svc-s2",
        kind="service",
        designs=("S2",),
        nodes=(36,),
        rates=(0.1,),
        seeds=(0,),
        sim_params={"tenants": 2, "requests_per_tenant": 4, "footprint_pages": 36},
    )
    payload = execute_task(spec.tasks()[0])
    assert payload["unsupported"] is True
    assert "requires shortcut wires" in payload["error"]
