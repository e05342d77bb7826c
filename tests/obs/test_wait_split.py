"""The anatomy's wait split against the cursor walk, and hook binding.

A packet's head-ready wait ``[ready, now)`` is split over the busy
segments of its outbound wire.  On a single-channel wire
:meth:`LatencyAnatomy.dequeue` does it with one bisect over per-class
prefix sums; the reference is the cursor walk over ``(start, end,
class)`` tuples that every wire used before, copied below as
:func:`walk_split`.  The walk once started a few segments before the
packet's queue-join index; on one channel the segments it skipped all
ended before the join, so walking every kept segment is the same
answer.  Both sides keep the same segments: the oracle prunes its
tuple list exactly as the anatomy prunes its prefix sums.

The binding tests check which callable fills each of the simulator's
hook slots, and that binding, unbinding and rebinding leave the
simulation bit-identical.  ``HYPOTHESIS_PROFILE=ci`` runs more,
derandomized examples.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs.anatomy import COMPONENTS, LatencyAnatomy
from tests.network.golden_grid import stats_digest

_CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"

LIMIT = 64  # the smallest segment_limit the anatomy accepts
QUEUEING = 4 + COMPONENTS.index("queueing")
ARBITRATION = 4 + COMPONENTS.index("arbitration")
CREDIT_STALL = 4 + COMPONENTS.index("credit_stall")


def walk_split(segs, lo, ready, now, my_cls, qos, blocking):
    """The cursor walk: covered cycles as ``(same_class, cross_class)``,
    adding each blocking class's cycles to ``blocking[(my, theirs)]``."""
    covered_same = 0
    covered_cross = 0
    cursor = ready
    for start, end, seg_cls in segs[lo:]:
        if start >= now:
            break
        if end <= cursor:
            continue
        a = start if start > cursor else cursor
        b = end if end < now else now
        overlap = b - a
        if overlap > 0:
            if qos and seg_cls != my_cls:
                covered_cross += overlap
            else:
                covered_same += overlap
            key = (my_cls, seg_cls)
            blocking[key] = blocking.get(key, 0) + overlap
            cursor = b
            if cursor >= now:
                break
    return covered_same, covered_cross


#: One transmission: (idle cycles before it, size in flits, class,
#: wait kind, wait cycles).  Kind 0 is no wait, 1 a short one, 2 one
#: reaching back past the segments already pruned.
transmission = st.tuples(
    st.integers(0, 6),
    st.integers(1, 8),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(1, 40),
)


def _drive(stream, qos):
    anatomy = LatencyAnatomy(segment_limit=LIMIT)
    port = SimpleNamespace(
        u=0,
        v=1,
        obs_wire=None,
        obs_hw=0,
        count=1,
        free_at=[0],
        cls_count=[0, 0, 0] if qos else None,
    )
    segs: list[tuple[int, int, int]] = []
    blocking: dict[tuple[int, int], int] = {}
    now = 0
    for gap, size, cls, kind, cycles in stream:
        now += gap
        if kind == 0:
            ready = now
        elif kind == 1:
            ready = now - cycles
        else:
            ready = now - cycles * 50
        state = [False, ready, cls, 0] + [0] * len(COMPONENTS)
        packet = SimpleNamespace(obs_state=state, size_flits=size, tclass=cls)
        anatomy.dequeue(port, packet, ready, now)
        same = cross = 0
        if now > ready:
            same, cross = walk_split(segs, 0, ready, now, cls, qos, blocking)
        assert state[QUEUEING] == same
        assert state[ARBITRATION] == cross
        assert state[CREDIT_STALL] == now - ready - same - cross
        segs.append((now, now + size, cls))
        if len(segs) > LIMIT:
            del segs[: len(segs) // 2]
        now += size  # one channel: the next send starts after this one
    matrix = {
        (i, j): cycles for i, row in anatomy.hotspots.matrix.items() for j, cycles in row.items()
    }
    assert matrix == blocking
    assert anatomy.transmissions == len(stream)


@settings(max_examples=400 if _CI else 60, deadline=None, derandomize=_CI)
@given(st.lists(transmission, max_size=300), st.booleans())
@example([(0, 1, 0, 0, 1)] * (LIMIT + 1) + [(0, 1, 1, 2, 40)], True)
@example([(3, 4, 1, 1, 5)] * (2 * LIMIT) + [(0, 2, 0, 2, 40)], False)
def test_prefix_split_matches_cursor_walk(stream, qos):
    _drive(stream, qos)


# -- hook slots ---------------------------------------------------------------


def _sim():
    from repro.network.simulator import NetworkSimulator
    from repro.topologies.registry import make_policy, make_topology
    from repro.traffic.injection import BernoulliInjector
    from repro.traffic.patterns import make_pattern

    topo = make_topology("SF", 48, seed=0)
    sim = NetworkSimulator(topo, make_policy(topo))
    BernoulliInjector(
        sim,
        make_pattern("uniform_random", topo.active_nodes),
        0.2,
        warmup=100,
        measure=800,
        seed=5,
    ).start()
    return sim


def _slots(sim):
    return (
        sim._hook_inject,
        sim._hook_arrive,
        sim._hook_enqueue,
        sim._hook_dequeue,
        sim._hook_send,
        sim._hook_deliver,
    )


def test_slots_bind_the_cheapest_callable():
    from repro.obs import FabricProbes
    from repro.obs.tracer import PacketTracer

    sim = _sim()
    assert _slots(sim) == (None,) * 6
    probes = FabricProbes().attach_sim(sim)
    assert _slots(sim) == (None, None, probes.on_enqueue, probes.on_dequeue, None, None)
    assert probes.event_hook() is None
    anatomy = probes.install_anatomy()
    assert _slots(sim) == (
        anatomy.inject,
        None,
        anatomy.enqueue,
        anatomy.dequeue,
        None,
        anatomy.deliver,
    )
    probes.tracer = PacketTracer(fraction=0.1)
    assert _slots(sim) == (
        probes.on_inject,
        probes.on_arrive,
        probes.on_enqueue,
        probes.on_dequeue,
        probes.on_send,
        probes.on_deliver,
    )
    assert probes.event_hook() == probes.on_event
    probes.tracer = None
    probes.anatomy = None
    assert _slots(sim)[2:4] == (probes.on_enqueue, probes.on_dequeue)
    sim.install_probes(None)
    assert _slots(sim) == (None,) * 6


def test_install_uninstall_and_tracer_attach_match_bare():
    from repro.obs import FabricProbes

    bare = _sim()
    bare.run(until=40_000)

    sim = _sim()
    first = FabricProbes()
    first.attach_sim(sim)
    first.install_anatomy()
    sim.run(until=300)
    sent = sim.stats.sent
    sim.install_probes(None)
    assert _slots(sim) == (None,) * 6
    sim.run(until=600)
    second = FabricProbes.full(interval=64, fraction=0.2, ring_size=32)
    second.attach_sim(sim)
    sent_before_second = sim.stats.sent
    sim.run(until=40_000)
    assert stats_digest(sim.stats) == stats_digest(bare.stats)
    # The first probes froze at the uninstall; the second counted from
    # where it was installed.
    assert first.injections == sent
    assert second.injections == sim.stats.sent - sent_before_second
    assert second.tracer.records


def test_preinstall_skips_count_packets_in_flight_at_install():
    from repro.obs import FabricProbes

    sim = _sim()
    probes = FabricProbes().attach_sim(sim)
    sim.run(until=450)
    delivered = sim.stats.delivered
    in_flight = sim.stats.sent - delivered - sim.stats.dropped
    assert in_flight > 0
    anatomy = probes.install_anatomy()
    sim.run(until=40_000)
    assert sim.stats.sent == sim.stats.delivered
    # Each packet in flight at the install is skipped once, at delivery.
    assert anatomy.preinstall_skips == in_flight
    assert anatomy.delivered + in_flight == sim.stats.delivered - delivered
