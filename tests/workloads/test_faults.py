"""Fault scenario tests: conservation, determinism anchors, phases."""

from __future__ import annotations

import pytest

from repro.faults.injector import FaultPlan
from repro.ops import Op
from repro.topologies.registry import make_policy, make_topology
from repro.workloads.faults import run_faults


def test_no_fault_run_is_bit_identical_to_plain_simulator():
    """With an empty fault plan the whole stack must be a no-op.

    The fault layer's arrival intercept, the availability gates, and
    the (idle) page machinery may not perturb a single event: the
    SimStats of a faultless run_faults must equal a plain
    run_synthetic bit for bit.
    """
    from repro.network.config import NetworkConfig
    from repro.traffic.injection import run_synthetic
    from repro.traffic.patterns import make_pattern
    from tests.network.golden_grid import stats_digest

    params = dict(rate=0.12, warmup=100, measure=900, seed=3)
    topo = make_topology("SF", 48, seed=0)
    faulty = run_faults(
        topo, plan=FaultPlan([]), footprint_pages=16,
        rate=params["rate"], warmup=params["warmup"],
        measure=params["measure"], seed=params["seed"],
    )
    topo2 = make_topology("SF", 48, seed=0)
    plain = run_synthetic(
        topo2, make_policy(topo2),
        make_pattern("uniform_random", topo2.active_nodes),
        params["rate"],
        config=NetworkConfig(emergency_stall_threshold=16),
        warmup=params["warmup"], measure=params["measure"],
        seed=params["seed"],
    )
    assert stats_digest(faulty.stats) == stats_digest(plain)
    assert faulty.stats.dropped == 0
    assert faulty.payload()["num_faults"] == 0


@pytest.mark.parametrize("design,nodes", [("SF", 32), ("DM", 36), ("Jellyfish", 32)])
def test_mixed_faults_conserve_everything(design, nodes):
    topo = make_topology(design, nodes, seed=0)
    result = run_faults(
        topo, rate=0.08, schedule="random", fault_rate=0.003,
        footprint_pages=32, warmup=200, measure=2500, seed=2,
    )
    payload = result.payload()
    assert payload["num_faults"] > 0
    assert payload["conserved"], (payload["sent"], payload["delivered"], payload["lost"])
    assert payload["sent"] == payload["delivered"] + payload["lost"]
    assert payload["page_conservation"]
    assert payload["page_residency_ok"]
    # Every loss is attributed to exactly one cause.
    assert payload["lost"] == (
        payload["dropped_link"] + payload["dropped_crash"]
        + payload["dropped_unreachable"] + payload["dropped_flush"]
    )


def test_crash_plus_recovery_conservation_and_residency():
    """The acceptance invariants through a crash-and-recover run."""
    topo = make_topology("SF", 64, seed=0)
    result = run_faults(
        topo, rate=0.1, schedule="crash", footprint_pages=64,
        mirrored=True, warmup=200, measure=3000, seed=0,
    )
    payload = result.payload()
    assert payload["num_faults"] == 1
    assert payload["conserved"]
    assert payload["pages_lost"] == 0
    assert payload["pages_recovered"] >= 1
    assert payload["recoveries_done"]
    assert payload["page_conservation"]
    assert payload["page_residency_ok"]
    # Retransmissions happened and are accounted: every abandoned or
    # retried loss traces back to a drop.
    assert payload["retransmits"] + payload["abandoned_unreachable"] > 0
    record = result.records[0]
    assert record.t_recovered is not None
    assert payload["unreachable_node_cycles"] == (
        record.t_recovered - record.t_fault
    )


def test_phase_stats_show_disturbance_and_recovery():
    topo = make_topology("SF", 64, seed=0)
    result = run_faults(
        topo, rate=0.1, schedule="crash", footprint_pages=0,
        warmup=200, measure=3000, seed=0,
    )
    payload = result.payload()
    for phase in ("baseline", "during", "after"):
        assert payload[f"fg_{phase}_requests"] > 0
        assert payload[f"fg_p99_{phase}"] >= payload[f"fg_p50_{phase}"] > 0
    # The fault window hurts and the network comes back.
    assert payload["fg_p99_during"] > payload["fg_p99_baseline"]
    assert payload["all_recovered"]


def test_explicit_plan_targets_fire_as_declared():
    topo = make_topology("SF", 32, seed=0)
    victim = None
    # A cleanly-gateable victim so the crash excision stays patchable.
    from repro.core.reconfig import ReconfigurationManager
    from repro.core.routing import AdaptiveGreediestRouting

    probe_topo = make_topology("SF", 32, seed=0)
    manager = ReconfigurationManager(
        probe_topo, AdaptiveGreediestRouting(probe_topo)
    )
    victim = manager.gate_candidates(1)[0]
    plan = FaultPlan([
        Op(700, "fault", fault_kind="node_hang", node=victim, duration=200),
        Op(1500, "fault", fault_kind="node_crash", node=victim),
    ])
    result = run_faults(
        topo, rate=0.08, plan=plan, footprint_pages=16,
        warmup=200, measure=2500, seed=0,
    )
    kinds = [r.kind for r in result.records]
    assert kinds == ["node_hang", "node_crash"]
    assert all(r.node == victim for r in result.records)
    payload = result.payload()
    assert payload["conserved"]
    assert payload["unreachable_node_cycles"] > 0


def test_unsupported_without_shortcuts():
    topo = make_topology("S2", 32, seed=0)
    with pytest.raises(ValueError, match="shortcut"):
        run_faults(topo, plan=FaultPlan([]), measure=100)
