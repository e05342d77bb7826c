"""Unit tests for the simulator-level fault semantics (FaultLayer)."""

from __future__ import annotations

import pytest

from repro.core.routing import RingBrokenError
from repro.faults.layer import FaultLayer
from repro.network.packet import Packet, PacketKind
from repro.network.simulator import NetworkSimulator
from repro.topologies.registry import make_policy, make_topology


def build_sim(n=32, design="SF", **layer_kwargs):
    topo = make_topology(design, n, seed=0)
    policy = make_policy(topo)
    sim = NetworkSimulator(topo, policy)
    layer = FaultLayer(sim, **layer_kwargs)
    return topo, sim, layer


def send_one(sim, src, dst, at=0):
    packet = Packet(src=src, dst=dst, kind=PacketKind.DATA)
    sim.send(packet, at)
    return packet


class TestLinkFailure:
    def test_mid_wire_packet_is_dropped_and_counted(self):
        # No retries: the clone would just wedge on the dead wire.
        topo, sim, layer = build_sim(max_retries=0)
        src = topo.active_nodes[0]
        nbr = topo.neighbors(src)[0]
        packet = send_one(sim, src, nbr)
        # Let the packet start transmission, then fail the wire under it.
        sim.run(until=2)
        doomed = layer.fail_link_pair(src, nbr)
        assert doomed >= 1
        sim.drain()
        assert sim.stats.dropped >= 1
        assert sim.stats.sent == sim.stats.delivered + sim.stats.dropped
        assert layer.drops["link"] == doomed
        assert packet.arrive_time is None

    def test_dropped_packet_is_retransmitted_and_delivered(self):
        topo, sim, layer = build_sim(retransmit_timeout=16)
        src = topo.active_nodes[0]
        nbr = topo.neighbors(src)[0]
        send_one(sim, src, nbr)
        sim.run(until=2)
        layer.fail_link_pair(src, nbr)
        # Repair knowledge: restore the link so the clone can route.
        sim.schedule(10, lambda now: layer.restore_link_pair(src, nbr))
        sim.drain()
        assert layer.retransmits == 1
        assert sim.stats.delivered == 1
        assert sim.stats.sent == 2  # original + clone
        assert sim.stats.sent == sim.stats.delivered + sim.stats.dropped

    def test_retry_gives_up_after_max_retries(self):
        topo, sim, layer = build_sim(retransmit_timeout=8, max_retries=2)
        src = topo.active_nodes[0]
        # Routing would re-route around one dead wire, so kill every
        # outgoing wire of the source: clones can never escape.
        send_one(sim, src, topo.neighbors(src)[0])
        sim.run(until=2)
        for w in sorted(set(topo.neighbors(src))):
            layer.fail_link_pair(src, w)
        # Clones re-enter at the source, route to some output port —
        # all frozen — so they queue; flush and count at the end.
        sim.drain()
        flushed = layer.flush_stuck()
        sim.drain()
        assert sim.stats.sent == sim.stats.delivered + sim.stats.dropped
        assert layer.retransmits <= 2
        assert flushed >= 0

    def test_frozen_link_holds_queue_until_restore(self):
        topo, sim, layer = build_sim()
        src = topo.active_nodes[0]
        nbr = topo.neighbors(src)[0]
        sim.freeze_link(src, nbr)
        packet = send_one(sim, src, nbr)
        sim.run(until=200)
        # With every path through other neighbors possible, greedy may
        # still deliver; force the direct-only case instead:
        if packet.arrive_time is None:
            assert sim.stats.delivered == 0
            sim.restore_link(src, nbr)
            sim.drain()
        assert sim.stats.delivered == 1
        assert sim.stats.dropped == 0


class TestCrashAndHang:
    def test_crash_drops_in_router_packets_and_marks_counts(self):
        topo, sim, layer = build_sim()
        victim = topo.active_nodes[5]
        neighbors = list(topo.neighbors(victim))
        # Queue a packet inside the victim: inject at the victim itself.
        send_one(sim, victim, neighbors[0])
        sim.run(until=1)  # arrival processed, packet queued on an out-port
        in_router, _mid = layer.crash_node(victim, neighbors)
        sim.drain()
        assert in_router + sim.stats.delivered >= 1
        assert sim.stats.sent == sim.stats.delivered + sim.stats.dropped
        assert victim in layer.crashed
        assert not layer.usable_source(victim)
        assert layer.usable_dest(victim)  # not *detected* dead yet

    def test_dead_destination_traffic_drops_and_is_abandoned(self):
        topo, sim, layer = build_sim()
        victim = topo.active_nodes[5]
        layer.crash_node(victim, topo.neighbors(victim))
        layer.mark_dead(victim)
        far = topo.active_nodes[-1]
        assert far != victim
        send_one(sim, far, victim)
        sim.drain()
        assert sim.stats.delivered == 0
        assert sim.stats.dropped == 1
        assert layer.drops["unreachable"] == 1
        assert layer.abandoned_unreachable == 1
        assert layer.retransmits == 0

    def test_hang_parks_holding_credit_and_resumes(self):
        topo, sim, layer = build_sim()
        victim = topo.active_nodes[5]
        neighbors = list(topo.neighbors(victim))
        layer.hang_node(victim, neighbors)
        src = neighbors[0]
        packet = send_one(sim, src, victim)
        sim.run(until=500)
        assert packet.arrive_time is None
        assert layer.parked_packets == 1
        assert sim.stats.dropped == 0
        layer.resume_node(victim, neighbors)
        sim.drain()
        assert packet.arrive_time is not None
        assert sim.stats.delivered == 1
        assert layer.park_cycle_sum > 0

    def test_resume_does_not_thaw_a_failed_wire(self):
        """Regression: freezing is shared between hangs and link faults.

        A hang freezes its node's outgoing wires; resuming it must not
        thaw a wire that a link fault killed while the node was hung —
        the failure registry, not the freeze bit, owns that state.
        """
        topo, sim, layer = build_sim()
        node = topo.active_nodes[0]
        neighbors = list(topo.neighbors(node))
        dead = neighbors[0]
        layer.fail_link_pair(node, dead)
        layer.hang_node(node, neighbors)
        layer.resume_node(node, neighbors)
        assert sim.link_frozen(node, dead)
        assert sim.link_frozen(dead, node)
        for w in neighbors[1:]:
            assert not sim.link_frozen(node, w)
        # Conversely, a flap restore while the node is hung must leave
        # its transmitter frozen (the hang still owns it) ...
        layer.hang_node(node, neighbors)
        layer.restore_link_pair(node, dead)
        assert sim.link_frozen(node, dead)
        # ... until the resume thaws it.
        layer.resume_node(node, neighbors)
        assert not sim.link_frozen(node, dead)

    def test_restore_does_not_resurrect_a_crashed_endpoint(self):
        topo, sim, layer = build_sim()
        node = topo.active_nodes[0]
        neighbors = list(topo.neighbors(node))
        w = neighbors[0]
        layer.fail_link_pair(node, w)  # the flap goes down
        layer.crash_node(w, topo.neighbors(w))  # ... then the far end dies
        layer.restore_link_pair(node, w)
        assert sim.link_frozen(node, w)
        assert sim.link_frozen(w, node)

    def test_flush_stuck_preserves_conservation(self):
        topo, sim, layer = build_sim()
        victim = topo.active_nodes[5]
        neighbors = list(topo.neighbors(victim))
        layer.hang_node(victim, neighbors)
        send_one(sim, neighbors[0], victim)
        sim.run(until=100)
        flushed = layer.flush_stuck()  # never resumed: parked flushes
        assert flushed == 1
        assert sim.stats.sent == sim.stats.delivered + sim.stats.dropped


class TestLazyFrozenChannels:
    def test_hung_router_never_satisfies_lazy_fast_path(self):
        """A frozen channel must not transmit just because its wire is
        idle.

        The lazy core decides "channel free" from per-channel
        ``free_at`` timestamps instead of pending LINK_FREE events, so
        freeze/fail must stay authoritative: a hung router's out-port
        whose wire went idle long ago still may not send until the
        hang is resumed.
        """
        topo, sim, layer = build_sim()
        victim = topo.active_nodes[5]
        neighbors = list(topo.neighbors(victim))
        dst = neighbors[0]
        # Two packets at the victim toward one neighbor: the first
        # claims the single-channel wire; the second queues behind it.
        p1 = send_one(sim, victim, dst)
        p2 = send_one(sim, victim, dst)
        sim.run(until=2)
        layer.hang_node(victim, neighbors)
        sim.run(until=400)
        port = sim._ports[victim * sim._n + dst]
        # The wire has been idle for hundreds of cycles, a packet is
        # queued, and the frozen link still never transmitted it.
        assert port.channels == 0 and port.saved_channels
        assert sim._busy_channels(port) == 0
        assert port.count >= 1
        assert p2.arrive_time is None
        assert sim.stats.dropped == 0
        layer.resume_node(victim, neighbors)
        sim.drain()
        assert p1.arrive_time is not None
        assert p2.arrive_time is not None
        assert sim.stats.sent == sim.stats.delivered


class TestWireOccupancyInvariant:
    @pytest.mark.parametrize("design,nodes,rate", [("SF", 64, 0.45)])
    def test_single_channel_wire_never_carries_two_packets(
        self, design, nodes, rate
    ):
        """No channel starts a transmission before its previous one ends.

        Wraps the one transmit tail, which both the send loop and
        run()'s fused wake hop call, under the deadlock-recovery stress
        configuration.  Each transmission's tail is read from the
        channel after the call, so one started by a re-entrant credit
        cascade inside another call is checked against it as well.
        Injection seed 1 is the one that catches a channel claim moved
        after the inbound-credit release: its cascade re-enters the
        sending port; seed 0's never does.
        """
        from repro.network.config import NetworkConfig
        from repro.traffic.injection import BernoulliInjector
        from repro.traffic.patterns import make_pattern

        topo = make_topology(design, nodes, seed=0)
        # Tiny buffers + short stall timeout force deadlock recovery;
        # the emergency escalation lets the wedged run drain fully so
        # sent == delivered stays assertable.
        config = NetworkConfig(
            buffer_packets=2, deadlock_timeout_cycles=16,
            emergency_stall_threshold=16,
        )
        for seed in (0, 1):
            sim = NetworkSimulator(topo, make_policy(topo), config)
            original = sim._transmit
            last_tail = {}
            violations = []

            def checked(port, chan, packet, from_link):
                start = sim.now
                original(port, chan, packet, from_link)
                prev = last_tail.get((port, chan))
                if prev is not None and start < prev:
                    violations.append((port.u, port.v, chan, start, prev))
                last_tail[port, chan] = port.free_at[chan]

            sim._transmit = checked
            injector = BernoulliInjector(
                sim, make_pattern("uniform_random", topo.active_nodes), rate,
                warmup=50, measure=300, seed=seed,
            )
            injector.start()
            sim.run(until=350)
            sim.drain()
            assert last_tail
            assert not violations, (seed, violations)
            assert sim.stats.sent == sim.stats.delivered


class TestRingBroken:
    """An arrival the space-0 ring walk cannot route onward is a loss
    under a fault layer and an error without one."""

    @staticmethod
    def _break_routing(sim, at_node):
        forward = sim.policy.forward

        def broken(node, packet, load, first_hop):
            if node == at_node:
                raise RingBrokenError(f"space-0 ring broken at node {node}")
            return forward(node, packet, load, first_hop)

        sim.policy.forward = broken

    def test_stranded_packet_is_dropped_and_retried(self):
        topo, sim, layer = build_sim(max_retries=2, retransmit_timeout=8)
        src = topo.active_nodes[0]
        dst = topo.active_nodes[-1]
        self._break_routing(sim, src)
        send_one(sim, src, dst)
        sim.drain()
        # The original and both retries strand at the source.
        assert layer.drops["ring_broken"] == 3
        assert layer.abandoned_retries == 1
        assert sim.stats.sent == sim.stats.delivered + sim.stats.dropped
        assert sim.inflight_to(dst) == 0

    def test_without_a_fault_layer_the_error_propagates(self):
        topo = make_topology("SF", 32, seed=0)
        sim = NetworkSimulator(topo, make_policy(topo))
        src = topo.active_nodes[0]
        self._break_routing(sim, src)
        send_one(sim, src, topo.active_nodes[-1])
        with pytest.raises(RingBrokenError):
            sim.drain()

    def test_fault_run_with_a_broken_ring_completes(self):
        # A failed link plus a crash excision leave node 8's ring walk
        # with no clockwise progress; the run used to abort there.
        from repro.workloads.faults import run_faults

        result = run_faults(
            make_topology("SF", 36, seed=0), rate=0.08, schedule="random",
            kinds=("link_flap", "link_down", "node_crash"),
            fault_rate=0.003, warmup=150, measure=2500,
            drain_limit=30_000, seed=4,
        )
        stats = result.stats
        assert result.layer.drops["ring_broken"] > 0
        assert stats.sent == stats.delivered + stats.dropped
        assert result.payload()["conserved"]
