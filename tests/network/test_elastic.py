"""Live reconfiguration inside the event loop: invariants under load.

The headline guarantees of :mod:`repro.network.elastic`:

* conservation — across a mid-flight gate/wake (and unmount/mount)
  cycle, no packet is ever dropped: ``sent == delivered`` after drain
  and ``sent == delivered + in-flight`` at every instant;
* every *measured* packet is delivered (none lost out of the window);
* the gated node carries no traffic while it is down, and traffic
  returns to it after the wake;
* the event timeline is ordered and charges the power-gating sleep and
  wake latencies;
* the whole pipeline is bit-deterministic.
"""

from __future__ import annotations

import pytest

from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import AdaptiveGreediestRouting
from repro.core.topology import StringFigureTopology
from repro.energy.power_gating import PowerManager
from repro.network.config import NetworkConfig
from repro.network.elastic import (
    LiveReconfigEvent,
    LiveReconfigurator,
    WindowedLatencyProbe,
    disturbance_metrics,
)
from repro.network.packet import Packet
from repro.network.policies import GreedyPolicy
from repro.network.simulator import NetworkSimulator
from repro.workloads.churn import ChurnAction, ChurnSchedule, run_churn

NODES = 48
CONFIG = NetworkConfig(emergency_stall_threshold=16)


def churn_cycle(
    rate=0.15, seed=0, gate_at=800, wake_at=1800, fraction=0.25, measure=3000, **kwargs
):
    topo = StringFigureTopology(NODES, 4, seed=7)
    schedule = ChurnSchedule.cycle(gate_at=gate_at, wake_at=wake_at, fraction=fraction)
    result = run_churn(
        topo,
        rate=rate,
        schedule=schedule,
        warmup=300,
        measure=measure,
        seed=seed,
        **kwargs,
    )
    return result, topo


class TestConservation:
    def test_no_packet_lost_across_gate_wake_cycle(self):
        result, _topo = churn_cycle()
        stats = result.stats
        assert len(result.events) == 2
        assert stats.sent == stats.delivered
        assert stats.in_flight == 0
        # Every measured packet was delivered inside the run.
        assert stats.measured_delivered == stats.injected

    def test_no_packet_lost_across_unmount_mount_cycle(self):
        topo = StringFigureTopology(NODES, 4, seed=7)
        schedule = ChurnSchedule(
            [
                ChurnAction(time=800, kind="unmount", fraction=0.2),
                ChurnAction(time=1800, kind="mount"),
            ]
        )
        result = run_churn(
            topo, rate=0.1, schedule=schedule, warmup=300, measure=3000, seed=2
        )
        kinds = [e.kind for e in result.events]
        assert kinds == ["unmount", "mount"]
        assert result.stats.sent == result.stats.delivered
        assert result.stats.measured_delivered == result.stats.injected
        assert result.final_active_nodes == NODES

    def test_conserved_at_every_instant_mid_run(self):
        """sent == delivered + in-flight holds while the network churns."""
        topo = StringFigureTopology(NODES, 4, seed=7)
        routing = AdaptiveGreediestRouting(topo)
        policy = GreedyPolicy(routing)
        sim = NetworkSimulator(topo, policy, CONFIG)
        manager = ReconfigurationManager(topo, routing)
        live = LiveReconfigurator(sim, manager, policy)

        from repro.traffic.patterns import make_pattern
        from repro.workloads.churn import ChurnInjector

        injector = ChurnInjector(
            sim,
            make_pattern("uniform_random", topo.active_nodes),
            0.15,
            warmup=100,
            measure=1500,
            seed=3,
            reconfig=live,
        )
        injector.start()
        live.gate_off(live.select_victims(fraction=0.25), at=500)

        samples: list[tuple[int, int, int]] = []

        def sample(now: int) -> None:
            samples.append((now, sim.stats.sent, sim.stats.delivered))
            if now < 1600:
                sim.schedule(now + 40, sample)

        sim.schedule(40, sample)
        sim.run(until=1600)
        sim.drain(limit=60_000)
        assert len(samples) > 30
        for _now, sent, delivered in samples:
            assert sent >= delivered
        assert sim.stats.sent == sim.stats.delivered

    def test_conservation_beyond_saturation(self):
        """Emergency escalation keeps delivery total even when the
        transition window drives the network past saturation."""
        result, _topo = churn_cycle(rate=0.35, measure=3000, drain_limit=80_000)
        stats = result.stats
        assert stats.sent == stats.delivered
        assert stats.in_flight == 0


class TestGatedNodeTraffic:
    def test_gated_node_dark_while_down_and_lit_after_wake(self):
        topo = StringFigureTopology(NODES, 4, seed=7)
        routing = AdaptiveGreediestRouting(topo)
        policy = GreedyPolicy(routing)
        sim = NetworkSimulator(topo, policy, CONFIG)
        manager = ReconfigurationManager(topo, routing)
        live = LiveReconfigurator(
            sim,
            manager,
            policy,
            power=PowerManager(manager, config=sim.config),
        )

        from repro.traffic.patterns import make_pattern
        from repro.workloads.churn import ChurnInjector

        injector = ChurnInjector(
            sim,
            make_pattern("uniform_random", topo.active_nodes),
            0.2,
            warmup=100,
            measure=6000,
            seed=4,
            reconfig=live,
        )
        injector.start()
        victims = live.select_victims(count=4)
        live.gate_off(victims, at=600)
        live.gate_on(victims, at=2500)

        deliveries: list[tuple[int, int]] = []
        sim.on_delivery(lambda packet, now: deliveries.append((now, packet.dst)))
        sim.run(until=6100)
        sim.drain(limit=60_000)

        gate_off = next(e for e in live.events if e.kind == "gate_off")
        gate_on = next(e for e in live.events if e.kind == "gate_on")
        down = [
            t
            for t, dst in deliveries
            if dst in victims and gate_off.t_switched < t < gate_on.t_switched
        ]
        after = [
            t for t, dst in deliveries if dst in victims and t > gate_on.t_unblocked
        ]
        assert down == []
        assert len(after) > 0

    def test_sources_pause_while_gated(self):
        result, _topo = churn_cycle(rate=0.2)
        # The gated sources' injection clocks kept ticking but skipped
        # their sends; the injector records every skip.
        gate_off = next(e for e in result.events if e.kind == "gate_off")
        assert gate_off.nodes  # victims existed
        assert result.min_active_nodes == NODES - len(gate_off.nodes)


class TestEventTimeline:
    def test_timeline_ordered_and_latencies_charged(self):
        result, _topo = churn_cycle()
        config = NetworkConfig()
        sleep_cycles = config.cycles_from_ns(680.0)
        wake_cycles = config.cycles_from_ns(5000.0)
        for event in result.events:
            assert event.t_request <= event.t_blocked
            assert event.t_blocked <= event.t_switched
            assert event.t_switched <= event.t_unblocked
            assert event.parked_packets >= 0
            assert event.park_cycle_sum >= 0
        gate_off = next(e for e in result.events if e.kind == "gate_off")
        gate_on = next(e for e in result.events if e.kind == "gate_on")
        # Sleep latency elapses between blocking and the wire switch;
        # wake latency elapses before the node rejoins.
        assert gate_off.t_switched - gate_off.t_blocked >= sleep_cycles
        assert gate_on.t_blocked - gate_on.t_request >= wake_cycles

    def test_nothing_left_parked_or_pending(self):
        topo = StringFigureTopology(NODES, 4, seed=7)
        routing = AdaptiveGreediestRouting(topo)
        policy = GreedyPolicy(routing)
        sim = NetworkSimulator(topo, policy, CONFIG)
        manager = ReconfigurationManager(topo, routing)
        live = LiveReconfigurator(sim, manager, policy)

        from repro.traffic.patterns import make_pattern
        from repro.workloads.churn import ChurnInjector

        injector = ChurnInjector(
            sim,
            make_pattern("uniform_random", topo.active_nodes),
            0.15,
            warmup=100,
            measure=1200,
            seed=5,
            reconfig=live,
        )
        injector.start()
        victims = live.select_victims(count=4)
        live.gate_off(victims, at=400)
        live.gate_on(victims, at=900)
        sim.run(until=1300)
        sim.drain(limit=60_000)
        assert live.parked_now == 0
        assert live.pending_operations == 0
        assert len(live.events) == 2
        assert sim.pending_events == 0

    def test_operations_serialize(self):
        """Two overlapping requests run one after the other."""
        result, _topo = churn_cycle(gate_at=800, wake_at=810)
        gate_off, gate_on = result.events
        assert gate_off.kind == "gate_off"
        assert gate_on.kind == "gate_on"
        assert gate_on.t_request >= gate_off.t_unblocked


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        a, _ = churn_cycle(rate=0.18, seed=11)
        b, _ = churn_cycle(rate=0.18, seed=11)
        assert a.payload() == b.payload()
        assert a.series == b.series

    @pytest.mark.slow
    def test_seed_changes_results(self):
        a, _ = churn_cycle(rate=0.18, seed=11)
        b, _ = churn_cycle(rate=0.18, seed=12)
        assert a.payload() != b.payload()


class TestDisturbanceMetrics:
    class _FakeSim:
        def __init__(self):
            self.callbacks = []

        def on_delivery(self, cb):
            self.callbacks.append(cb)

    def _probe_with(self, deliveries):
        sim = self._FakeSim()
        probe = WindowedLatencyProbe(sim, window_cycles=100)
        for now, latency in deliveries:
            packet = Packet(src=0, dst=1)
            packet.inject_time = now - latency
            packet.arrive_time = now
            probe._record(packet, now)
        return probe

    def test_peak_and_recovery(self):
        # Baseline latency 10, spike to 50 during the event, back to 11.
        deliveries = [(t, 10) for t in range(50, 1000, 10)]
        deliveries += [(t, 50) for t in range(1000, 1200, 10)]
        deliveries += [(t, 11) for t in range(1200, 2000, 10)]
        probe = self._probe_with(deliveries)
        event = LiveReconfigEvent(
            kind="gate_off",
            nodes=(1,),
            t_request=1000,
            t_blocked=1000,
            t_switched=1100,
            t_unblocked=1150,
        )
        metrics = disturbance_metrics(probe, event.t_request, event.t_unblocked)
        assert metrics["baseline_latency"] == pytest.approx(10.0)
        assert metrics["peak_latency"] == pytest.approx(50.0)
        assert metrics["peak_ratio"] == pytest.approx(5.0)
        assert metrics["recovered"]
        assert metrics["recovery_cycles"] == 150  # end of the 1200 window

    def test_event_with_no_traffic_after_counts_recovered(self):
        deliveries = [(t, 10) for t in range(50, 900, 10)]
        probe = self._probe_with(deliveries)
        event = LiveReconfigEvent(
            kind="gate_on",
            nodes=(1,),
            t_request=1000,
            t_blocked=1000,
            t_switched=1000,
            t_unblocked=1050,
        )
        metrics = disturbance_metrics(probe, event.t_request, event.t_unblocked)
        assert metrics["recovered"]
        assert metrics["recovery_cycles"] == 0

    def test_window_probe_series(self):
        probe = self._probe_with([(50, 10), (60, 20), (150, 30)])
        series = probe.series()
        assert series[0] == {"window_start": 0, "count": 2, "mean_latency": 15.0}
        assert series[1]["count"] == 1
        assert probe.mean_between(0, 100) == pytest.approx(15.0)


class TestGuards:
    def test_drain_timeout_raises_for_non_churn_traffic(self):
        """Plain injectors keep targeting the victim; drain must fail
        loudly instead of hanging forever."""
        from repro.traffic.injection import BernoulliInjector
        from repro.traffic.patterns import make_pattern

        topo = StringFigureTopology(32, 4, seed=7)
        routing = AdaptiveGreediestRouting(topo)
        policy = GreedyPolicy(routing)
        sim = NetworkSimulator(topo, policy, CONFIG)
        manager = ReconfigurationManager(topo, routing)
        live = LiveReconfigurator(sim, manager, policy, drain_timeout_cycles=500)
        injector = BernoulliInjector(
            sim,
            make_pattern("uniform_random", topo.active_nodes),
            0.3,
            warmup=0,
            measure=5000,
            seed=1,
        )
        injector.start()
        live.gate_off(live.select_victims(count=2), at=100)
        with pytest.raises(RuntimeError, match="could not drain"):
            sim.run(until=5000)

    def test_router_with_fully_blocked_neighborhood_survives(self):
        """A router whose every neighbor is a victim gets an *empty*
        usable window mid-reconfiguration; view construction and the
        parking probe must both cope (regression: reshape(0, -1))."""
        topo = StringFigureTopology(32, 4, seed=0)
        routing = AdaptiveGreediestRouting(topo)
        some_node = topo.active_nodes[0]
        for table in routing.tables.values():
            for neighbor in topo.neighbors(some_node):
                table.block(neighbor)
        routing.refresh_views()  # must not raise
        # The CLI-scale scenario that originally crashed: 32 nodes,
        # a quarter gated, live.
        topo = StringFigureTopology(32, 4, seed=0)
        schedule = ChurnSchedule.cycle(gate_at=500, wake_at=1000, fraction=0.25)
        result = run_churn(
            topo, rate=0.1, schedule=schedule, warmup=150, measure=2000, seed=0
        )
        assert result.stats.sent == result.stats.delivered

    def test_empty_request_is_noop(self):
        topo = StringFigureTopology(32, 4, seed=7)
        routing = AdaptiveGreediestRouting(topo)
        policy = GreedyPolicy(routing)
        sim = NetworkSimulator(topo, policy, CONFIG)
        manager = ReconfigurationManager(topo, routing)
        live = LiveReconfigurator(sim, manager, policy)
        live.gate_off([], at=10)
        sim.run(until=100)
        assert live.events == []
        assert live.pending_operations == 0
