"""Churn scenarios: schedules, churn-aware injection, the controller."""

from __future__ import annotations

import pytest

from repro.core.topology import StringFigureTopology
from repro.ops import Op
from repro.workloads.churn import (
    ChurnSchedule,
    UtilizationController,
    run_churn,
)


class TestSchedules:
    def test_cycle_builds_two_actions(self):
        schedule = ChurnSchedule.cycle(gate_at=100, wake_at=500, fraction=0.25)
        assert [op.verb for op in schedule.ops] == ["gate_off", "gate_on"]
        assert schedule.ops[0].fraction == 0.25

    def test_cycle_rejects_wake_before_gate(self):
        with pytest.raises(ValueError, match="wake_at"):
            ChurnSchedule.cycle(gate_at=500, wake_at=500, fraction=0.25)

    def test_periodic_duty_cycles(self):
        schedule = ChurnSchedule.periodic(
            start=1000, period=2000, duty=0.5, fraction=0.1, cycles=3
        )
        times = [(op.t, op.verb) for op in schedule.ops]
        assert times == [
            (1000, "gate_off"),
            (2000, "gate_on"),
            (3000, "gate_off"),
            (4000, "gate_on"),
            (5000, "gate_off"),
            (6000, "gate_on"),
        ]

    def test_periodic_rejects_bad_duty(self):
        with pytest.raises(ValueError, match="duty"):
            ChurnSchedule.periodic(start=0, period=100, duty=1.5, fraction=0.1, cycles=1)

    def test_action_rejects_unknown_kind(self):
        topo = StringFigureTopology(32, 4, seed=5)
        with pytest.raises(ValueError, match="unknown verb 'explode'"):
            run_churn(topo, schedule=ChurnSchedule([Op(0, "explode")]), measure=100)


class TestPeriodicChurn:
    def test_periodic_schedule_runs_all_cycles(self):
        topo = StringFigureTopology(48, 4, seed=5)
        schedule = ChurnSchedule.periodic(
            start=500, period=1600, duty=0.4, fraction=0.15, cycles=2
        )
        result = run_churn(
            topo, rate=0.1, schedule=schedule, warmup=200, measure=4000, seed=0
        )
        kinds = [e.kind for e in result.events]
        assert kinds == ["gate_off", "gate_on", "gate_off", "gate_on"]
        assert result.stats.sent == result.stats.delivered
        assert result.final_active_nodes == 48

    def test_payload_is_json_safe(self):
        import json

        topo = StringFigureTopology(32, 4, seed=5)
        schedule = ChurnSchedule.cycle(gate_at=500, wake_at=1200, fraction=0.2)
        result = run_churn(
            topo, rate=0.1, schedule=schedule, warmup=200, measure=2000, seed=0
        )
        payload = result.payload()
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["sent"] == payload["sent"]
        assert round_tripped["events"][0]["kind"] == "gate_off"


class TestUtilizationController:
    def test_controller_gates_underutilized_network(self):
        topo = StringFigureTopology(48, 4, seed=5)
        result = run_churn(
            topo,
            rate=0.03,
            schedule=None,
            controller_params=dict(
                interval=800,
                low_util=0.05,
                high_util=0.5,
                gate_step=6,
                min_active_fraction=0.6,
            ),
            warmup=200,
            measure=9000,
            seed=1,
            granularity_ns=4000.0,  # let the controller act repeatedly
        )
        kinds = [e.kind for e in result.events]
        assert kinds and set(kinds) == {"gate_off"}
        assert result.min_active_nodes < 48
        # Floor respected: never below min_active_fraction of the net.
        assert result.min_active_nodes >= int(48 * 0.6)
        assert result.stats.sent == result.stats.delivered
        actions = [d["action"] for d in result.controller_log]
        assert any(a.startswith("gate_off") for a in actions)
        # Near the floor the controller stops gating and says why:
        # either no headroom or no cleanly-gateable victims remain.
        assert actions[-1] in ("at_floor", "no_candidates")

    def test_controller_wakes_on_high_utilization(self):
        """The wake decision path, driven directly."""
        topo = StringFigureTopology(48, 4, seed=5)

        from repro.core.reconfig import ReconfigurationManager
        from repro.core.routing import AdaptiveGreediestRouting
        from repro.energy.power_gating import PowerManager
        from repro.fabric import Fabric
        from repro.network.elastic import LiveReconfigurator
        from repro.network.policies import GreedyPolicy
        from repro.network.simulator import NetworkSimulator

        routing = AdaptiveGreediestRouting(topo)
        policy = GreedyPolicy(routing)
        sim = NetworkSimulator(topo, policy)
        manager = ReconfigurationManager(topo, routing)
        live = LiveReconfigurator(
            sim,
            manager,
            policy,
            power=PowerManager(manager, config=sim.config, granularity_ns=1.0),
        )
        controller = UtilizationController(
            Fabric(sim=sim, live=live), low_util=0.01, high_util=0.1, gate_step=2
        )
        decision = controller._decide(100, util=0.0, active=48, total=48)
        assert decision.startswith("gate_off")
        sim.run(until=20_000)  # let the gate-off complete
        assert len(live.events) == 1
        decision = controller._decide(
            sim.now + 1000,
            util=0.5,
            active=len(topo.active_nodes),
            total=48,
        )
        assert decision.startswith("gate_on")
        sim.drain(limit=100_000)
        assert [e.kind for e in live.events] == ["gate_off", "gate_on"]
        assert len(topo.active_nodes) == 48

    def test_controller_respects_granularity(self):
        topo = StringFigureTopology(48, 4, seed=5)
        result = run_churn(
            topo,
            rate=0.03,
            schedule=None,
            controller_params=dict(
                interval=800, low_util=0.05, high_util=0.5, gate_step=4
            ),
            warmup=200,
            measure=5000,
            seed=1,
        )
        # Default 100 us granularity spans the whole run: one action.
        assert len(result.events) == 1
        assert any(d["action"] == "granularity" for d in result.controller_log)


class TestChurnInjector:
    def test_injection_skips_gated_sources(self):
        from repro.core.reconfig import ReconfigurationManager
        from repro.core.routing import AdaptiveGreediestRouting
        from repro.network.elastic import LiveReconfigurator
        from repro.network.policies import GreedyPolicy
        from repro.network.simulator import NetworkSimulator
        from repro.traffic.patterns import make_pattern
        from repro.workloads.churn import ChurnInjector

        topo = StringFigureTopology(32, 4, seed=5)
        routing = AdaptiveGreediestRouting(topo)
        policy = GreedyPolicy(routing)
        sim = NetworkSimulator(topo, policy)
        manager = ReconfigurationManager(topo, routing)
        live = LiveReconfigurator(sim, manager, policy)
        injector = ChurnInjector(
            sim,
            make_pattern("uniform_random", topo.active_nodes),
            0.3,
            warmup=0,
            measure=3000,
            seed=6,
            reconfig=live,
        )
        injector.start()
        live.gate_off(live.select_victims(count=4), at=500)
        sim.run(until=3000)
        sim.drain(limit=60_000)
        assert injector.skipped_sources > 0
        assert injector.redraws > 0
        assert sim.stats.sent == sim.stats.delivered
