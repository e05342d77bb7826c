"""The one vocabulary for live changes: the request-log shape, the one
check every caller gets, and the one record of gated batches."""

from __future__ import annotations

import json
import re

import pytest

from repro.fabric import build_fabric
from repro.ops import Op, apply, schedule
from repro.service.core import FabricService
from repro.topologies.registry import make_topology
from repro.workloads.churn import ChurnSchedule, run_churn
from repro.workloads.service import synthetic_schedule

# Control entries as the service and synthetic_schedule wrote them
# before ops existed; captured logs in this shape must still replay.
LOG_ENTRIES = [
    {"kind": "control", "t": 200, "verb": "scale_down", "count": 6},
    {"kind": "control", "t": 200, "verb": "scale_down", "fraction": 0.25},
    {"kind": "control", "t": 210, "verb": "scale_down", "nodes": [3, 17]},
    {"kind": "control", "t": 700, "verb": "scale_up"},
    {"kind": "control", "t": 710, "verb": "scale_up", "nodes": [17, 3]},
    {"kind": "control", "t": 800, "verb": "unmount", "nodes": [5]},
    {"kind": "control", "t": 900, "verb": "mount"},
    {
        "kind": "control",
        "t": 1400,
        "verb": "fault",
        "fault_kind": "node_crash",
        "node": 14,
        "link": None,
        "duration": 0,
    },
    {
        "kind": "control",
        "t": 1500,
        "verb": "fault",
        "fault_kind": "link_flap",
        "node": None,
        "link": [3, 4],
        "duration": 300,
    },
    {"kind": "control", "t": 2000, "verb": "drain"},
]


@pytest.mark.parametrize("entry", LOG_ENTRIES, ids=lambda e: f"{e['verb']}@{e['t']}")
def test_log_entry_round_trips_byte_for_byte(entry):
    op = Op.from_entry(entry)
    assert json.dumps(op.to_entry()) == json.dumps(entry)


def test_gate_verbs_log_under_their_scale_names():
    assert Op.from_entry(LOG_ENTRIES[0]).verb == "gate_off"
    assert Op.from_entry(LOG_ENTRIES[3]).verb == "gate_on"
    for name in ("gate_off", "explode"):
        with pytest.raises(ValueError, match="unknown control verb"):
            Op.from_entry({"kind": "control", "t": 0, "verb": name})


def test_synthetic_schedule_controls_keep_their_shape():
    entries = synthetic_schedule(
        tenants=1,
        requests_per_tenant=1,
        scale_at=200,
        scale_count=6,
        scale_back_after=500,
        fault_at=1400,
        fault_node=14,
    )
    controls = [json.dumps(e) for e in entries if e["kind"] == "control"]
    assert controls == [
        json.dumps(LOG_ENTRIES[0]),
        '{"kind": "control", "t": 700, "verb": "scale_up"}',
        json.dumps(LOG_ENTRIES[7]),
    ]


def test_service_logs_the_resolved_victims():
    svc = FabricService(nodes=36, footprint_pages=64)
    reply = svc.scale_down(count=2)
    assert reply["ok"] and reply["verb"] == "scale_down"
    assert svc.log_entries == [
        {"kind": "control", "t": 0, "verb": "scale_down", "nodes": reply["nodes"]}
    ]


# Each was accepted by scripted churn before ops and refused by the
# service; now both refuse it, with one message, before the run starts.
CHURN_REFUSALS = [
    (Op(200, "gate_off", nodes=(999,)), "nodes must be a list of node ids in [0, 32)"),
    (Op(200, "gate_off", fraction=1.5), "fraction must be a number in [0, 1.0]"),
    (Op(200, "gate_on", nodes=(3,)), "node 3 is not gated"),
]


@pytest.mark.parametrize("op, error", CHURN_REFUSALS, ids=["unknown-node", "fraction", "wake"])
def test_scripted_churn_gets_the_service_checks(op, error):
    sims = []
    with pytest.raises(ValueError, match=re.escape(f"at cycle 200: {error}")):
        run_churn(
            make_topology("SF", 32, seed=0),
            schedule=ChurnSchedule([op]),
            warmup=50,
            measure=400,
            instrument=sims.append,
        )
    assert sims[0].now == 0 and sims[0].stats.sent == 0
    service = FabricService(nodes=32, footprint_pages=64)
    assert service.apply(op) == {"ok": False, "error": error}
    assert service.log_entries == []


def test_plan_check_follows_the_gated_record():
    fabric = build_fabric(make_topology("SF", 32, seed=0))
    schedule(fabric, [Op(100, "gate_off", nodes=[3]), Op(200, "gate_on", nodes=[3])])
    # Victims chosen when the op runs: a named wake is left to apply.
    schedule(fabric, [Op(100, "gate_off", fraction=0.1), Op(200, "gate_on", nodes=[3])])
    with pytest.raises(ValueError, match="node 3 is not active or is already gated"):
        schedule(fabric, [Op(100, "gate_off", nodes=[3]), Op(150, "gate_off", nodes=[3])])
    with pytest.raises(ValueError, match="fault requires a fault stack"):
        schedule(fabric, [Op(100, "fault", fault_kind="node_crash")])
    with pytest.raises(ValueError, match="unknown fault kind 'meteor'"):
        schedule(
            build_fabric(make_topology("SF", 32, seed=0), faults=True),
            [Op(100, "fault", fault_kind="meteor")],
        )
    with pytest.raises(ValueError, match="scale requires a String Figure fabric"):
        schedule(build_fabric(make_topology("DM", 36)), [Op(100, "gate_off", count=1)])


def test_wake_without_nodes_uses_gate_order():
    fabric = build_fabric(make_topology("SF", 32, seed=0))
    first = apply(fabric, Op(0, "gate_off", count=2))["nodes"]
    second = [n for n in fabric.sim.topology.active_nodes if n not in first][:1]
    refused = apply(fabric, Op(0, "gate_off", nodes=[first[0]]))
    assert refused["error"] == f"node {first[0]} is not active or is already gated"
    assert apply(fabric, Op(0, "gate_off", nodes=second))["ok"]
    assert fabric.gated == [tuple(first), tuple(second)]
    assert apply(fabric, Op(0, "gate_on", nodes=[first[0]]))["nodes"] == [first[0]]
    assert fabric.gated == [(first[1],), tuple(second)]
    woken = apply(fabric, Op(0, "gate_on"))
    assert woken == {"ok": True, "verb": "scale_up", "nodes": [first[1], *second]}
    assert fabric.gated == []
    assert apply(fabric, Op(0, "gate_on")) == {"ok": False, "error": "no gated nodes to wake"}


def test_drain_belongs_to_the_service():
    fabric = build_fabric(make_topology("SF", 32, seed=0))
    assert apply(fabric, Op(0, "drain"))["ok"] is False
    service = FabricService(nodes=36, footprint_pages=64)
    assert service.apply(Op(0, "drain"))["all_conserved"]
    assert service.log_entries == [LOG_ENTRIES[-1] | {"t": 0}]


def test_back_to_back_scale_downs_choose_disjoint_victims():
    service = FabricService(nodes=36, footprint_pages=64)
    first = service.scale_down(count=2)
    second = service.scale_down(count=2)
    assert first["ok"] and second["ok"]
    assert not set(first["nodes"]) & set(second["nodes"])
    # The second batch keeps two ring slots from the queued first one.
    coords = service.sim.topology.coords
    slots = [coords.ring_position(n, 0) for n in first["nodes"] + second["nodes"]]
    for i, p in enumerate(slots):
        for q in slots[i + 1 :]:
            assert min((p - q) % 36, (q - p) % 36) >= 2
    service.drain()
    victims = {*first["nodes"], *second["nodes"]}
    assert {n for batch in service.fabric.gated for n in batch} == victims
    assert not victims & set(service.sim.topology.active_nodes)
    assert service.fabric.live.refused == []
