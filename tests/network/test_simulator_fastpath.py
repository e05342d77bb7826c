"""Fast-path counter integrity: O(1) quiescence/in-flight bookkeeping.

The simulator replaced heap scans and an unbounded per-destination
dict with three per-node counter arrays.  These tests pin the counters
to reality:

* ``node_quiescent`` (counters) must agree with the retained reference
  scan implementation at every sampled instant of a live-churn run —
  the one workload that exercises parking, re-arrival, and mid-run
  link removal (``take_queued``);
* after a long multi-cycle churn run fully drains, every counter is
  exactly zero and ``sent == delivered`` (the leak the old dict-based
  ``_dst_inflight`` made unobservable);
* a double delivery (a buggy hook re-entering a packet it does not
  own) trips the non-negativity guard instead of silently corrupting
  drain decisions.
"""

from __future__ import annotations

import pytest

from repro.core.reconfig import ReconfigurationManager
from repro.core.routing import AdaptiveGreediestRouting
from repro.core.topology import StringFigureTopology
from repro.energy.power_gating import PowerManager
from repro.network.config import NetworkConfig
from repro.network.elastic import LiveReconfigurator
from repro.network.packet import Packet
from repro.network.policies import GreedyPolicy
from repro.network.simulator import _ARRIVE, NetworkSimulator
from repro.traffic.patterns import make_pattern
from repro.workloads.churn import ChurnInjector


def _node_quiescent_scan(sim: NetworkSimulator, node: int) -> bool:
    """Reference implementation of :meth:`NetworkSimulator.node_quiescent`.

    Scans every port and the whole event queue (the pre-fast-path
    behaviour).  Kept for the counter-vs-scan differential test;
    never called on the hot path.
    """
    if sim._dst_inflight[node]:
        return False
    for port in sim._ports.values():
        if port.u != node and port.v != node:
            continue
        if port.count or sim._busy_channels(port):
            return False
    for _time, _seq, code, a, _b in sim._queued_events():
        if code == _ARRIVE and a == node:
            return False
    return True


def _churn_stack(num_nodes=48, ports=4, seed=7, rate=0.15,
                 warmup=100, measure=2000):
    topo = StringFigureTopology(num_nodes, ports, seed=seed)
    routing = AdaptiveGreediestRouting(topo)
    policy = GreedyPolicy(routing)
    config = NetworkConfig(emergency_stall_threshold=16)
    sim = NetworkSimulator(topo, policy, config)
    manager = ReconfigurationManager(topo, routing)
    power = PowerManager(manager, config=sim.config)
    live = LiveReconfigurator(sim, manager, policy, power=power)
    pattern = make_pattern("uniform_random", topo.active_nodes)
    injector = ChurnInjector(
        sim, pattern, rate, warmup=warmup, measure=measure, seed=seed,
        reconfig=live,
    )
    return topo, sim, live, injector


class TestNodeQuiescentDifferential:
    def test_counters_agree_with_scan_throughout_churn(self):
        """O(1) node_quiescent == reference scan at every sample point."""
        topo, sim, live, injector = _churn_stack(measure=1500)
        warmup, measure = 100, 1500
        mismatches: list[tuple[int, int, bool, bool]] = []

        def probe(now: int) -> None:
            for node in range(topo.num_nodes):
                fast = sim.node_quiescent(node)
                scan = _node_quiescent_scan(sim, node)
                if fast != scan:
                    mismatches.append((now, node, fast, scan))
            if now < warmup + measure + 800:
                sim.schedule(now + 37, probe)

        injector.start()
        live.gate_off(live.select_victims(fraction=0.25), at=warmup + 300)

        def wake(now: int) -> None:
            # Wake whatever the gate-off actually took down.
            gated = [n for ev in live.events for n in ev.nodes
                     if ev.kind == "gate_off"]
            if gated:
                live.gate_on(gated)

        sim.schedule(warmup + 900, wake)
        sim.schedule(1, probe)
        sim.run(until=warmup + measure)
        sim.drain(limit=200_000)
        assert mismatches == []
        # The run exercised a real reconfiguration (parking/rerouting).
        assert any(ev.kind == "gate_off" for ev in live.events)
        assert any(ev.kind == "gate_on" for ev in live.events)


class TestLongChurnConservation:
    def test_counters_return_to_zero_after_multi_cycle_churn(self):
        """Three gate/wake rounds; after the drain every per-node
        counter is exactly zero and no packet was lost or duplicated.

        With the old dict-based ``_dst_inflight`` this leak was
        unobservable: entries stayed behind forever (the dict only
        ever grew) and there was no non-negativity check.
        """
        from repro.workloads.churn import ChurnSchedule, _ScheduleDriver

        topo, sim, live, injector = _churn_stack(
            num_nodes=48, seed=5, rate=0.1, measure=5200
        )
        injector.start()
        driver = _ScheduleDriver(live)
        driver.apply(ChurnSchedule.periodic(
            start=300, period=1600, duty=0.4, fraction=0.15, cycles=3
        ))
        sim.run(until=100 + 5200)
        sim.drain(limit=300_000)

        assert sim.pending_events == 0
        assert live.parked_now == 0
        assert sim.stats.sent == sim.stats.delivered
        assert len(live.events) >= 6  # 3 gate-offs + 3 wakes all ran
        # Every fast-path counter is back to exactly zero.
        assert set(sim._dst_inflight) == {0}
        assert set(sim._pending_arrive) == {0}
        assert set(sim._node_traffic) == {0}
        for port in sim._ports.values():
            assert port.count == 0
            assert sim._busy_channels(port) == 0

    def test_inflight_to_counts_destined_packets(self):
        topo = StringFigureTopology(16, 4, seed=1)
        sim = NetworkSimulator(
            topo, GreedyPolicy(AdaptiveGreediestRouting(topo))
        )
        dst = topo.neighbors(0)[0]
        for _ in range(5):
            sim.send(Packet(src=0, dst=dst), 0)
        assert sim.inflight_to(dst) == 5
        sim.drain()
        assert sim.inflight_to(dst) == 0


class TestNonNegativityGuard:
    def test_double_delivery_raises(self):
        """Re-entering an already-delivered packet trips the guard."""
        topo = StringFigureTopology(16, 4, seed=1)
        sim = NetworkSimulator(
            topo, GreedyPolicy(AdaptiveGreediestRouting(topo))
        )
        dst = topo.neighbors(0)[0]
        packet = Packet(src=0, dst=dst)
        sim.send(packet, 0)
        sim.drain()
        assert packet.arrive_time is not None
        # A rogue hook handing back a packet it no longer owns:
        sim.rearrive(dst, packet, None)
        with pytest.raises(RuntimeError, match="negative"):
            sim.drain()
