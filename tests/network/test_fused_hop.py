"""The fused wake-to-wire hop against the send loop it stands in for.

:meth:`NetworkSimulator.run` sends a lone head-ready packet straight
from a ``WAKE`` on a single-channel port, replaying the effects
:meth:`NetworkSimulator._try_send` has for it.  Each example queues one
packet on one port, draws the port's arbitration state (class, VC,
per-class and shared credits, DRR deficits, band rotation, class and
classless VC rotation) and the packet's ready cycle, then processes
the ``WAKE`` through ``run()`` on one simulator and hands the same port
to ``_try_send`` on a deep copy at the same ``now`` and ``_cur_seq``.
Every port field, ``stats``, the sequence counters, the calendar and
the packet's anatomy state must agree.  The tables are classless, the
default one and one with two classes sharing a band; each runs bare,
with counter probes and with the latency anatomy.

A second test checks the invariant the send paths lean on: a channel
whose LINK_FREE retry is armed is busy, with that retry queued at its
release point, on every port at every checkpoint of random runs.

``HYPOTHESIS_PROFILE=ci`` runs more, derandomized examples.
"""

from __future__ import annotations

import copy
import heapq
import os
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.config import NetworkConfig
from repro.network.packet import Packet
from repro.network.qos import QoSConfig
from repro.network.simulator import _LINK_FREE, _WAKE, NetworkSimulator, _OutPort
from repro.obs.probes import FabricProbes
from repro.topologies.registry import make_policy, make_topology
from repro.traffic.injection import run_synthetic
from repro.traffic.patterns import make_pattern
from repro.workloads.interference import run_interference
from tests.network.golden_grid import shared_band_table, stats_digest

_CI = os.environ.get("HYPOTHESIS_PROFILE") == "ci"

TABLES = ("classless", "default", "shared_band")
PROBES = ("bare", "probes", "anatomy")


@lru_cache(maxsize=None)
def pristine(table: str, probes: str) -> NetworkSimulator:
    """A traffic-free SF-16 simulator (deep-copied, never run)."""
    topo = make_topology("SF", 16, seed=0)
    sim = NetworkSimulator(topo, make_policy(topo, adaptive=True))
    if probes != "bare":
        fabric = FabricProbes().attach_sim(sim)
        if probes == "anatomy":
            fabric.install_anatomy()
    if table == "default":
        sim.install_qos(QoSConfig.default())
    elif table == "shared_band":
        sim.install_qos(shared_band_table())
    return sim


def _norm(obj):
    """A comparable stand-in for calendar and queue entries."""
    if isinstance(obj, _OutPort):
        return ("port", obj.u, obj.v)
    if isinstance(obj, Packet):
        return ("packet", obj.pid)
    if isinstance(obj, (tuple, list)):
        return tuple(_norm(item) for item in obj)
    return obj


def _wire(wire):
    if wire is None:
        return None
    segs = None if wire.segs is None else list(wire.segs)
    return (
        list(wire.ends),
        list(wire.cum),
        list(wire.row),
        segs,
        wire.base,
        dict(wire.occupancy.counts),
        dict(wire.waits.counts),
        wire.link.wait_cycles,
    )


def snapshot(sim: NetworkSimulator, packet: Packet) -> dict:
    """Everything a send can touch, in comparable form."""
    ports = {}
    for lid, port in sim._ports.items():
        fields = {}
        for name in _OutPort.__slots__:
            value = getattr(port, name)
            if name == "queues":
                value = [_norm(list(queue)) for queue in value]
            elif name == "obs_wire":
                value = _wire(value)
            elif isinstance(value, set):
                value = sorted(value)
            elif isinstance(value, list):
                value = list(value)
            fields[name] = value
        ports[lid] = fields
    probes = sim._probes
    counters = None if probes is None else (probes._tx, probes.credit_stalls, probes.event_counts)
    state = packet.obs_state
    return {
        "ports": ports,
        "stats": stats_digest(sim.stats),
        "seq": sim._seq,
        "processed": sim._events_processed,
        "elided": sim._link_events_elided,
        "pending_arrive": list(sim._pending_arrive),
        "dst_inflight": list(sim._dst_inflight),
        "now": sim.now,
        "calendar": {time: _norm(list(queue)) for time, queue in sim._cal.items()},
        "times": sorted(sim._times),
        "packet": (packet.vc, packet.hops, None if state is None else list(state)),
        "probes": None if counters is None else repr(counters),
    }


def wake_by_hand(sim: NetworkSimulator) -> None:
    """Pop the next event (a WAKE) as ``run()``'s dispatch does, then
    hand its port to the send loop."""
    time = sim._times[0]
    queue = sim._cal[time]
    seq, code, port, _b = queue.popleft()
    assert code == _WAKE
    sim.now = time
    sim._cur_seq = seq
    sim._events_processed += 1
    if sim._probes is not None:
        sim._probes.event_counts[code] += 1
    port.wake_at = None
    sim._try_send(port)
    if not queue:
        del sim._cal[time]
        heapq.heappop(sim._times)


@st.composite
def port_states(draw):
    table = draw(st.sampled_from(TABLES))
    probes = draw(st.sampled_from(PROBES))
    sim = pristine(table, probes)
    num_vcs = sim._num_vcs
    classes = 1 if sim._qos is None else sim._qos.num_classes
    credit = st.integers(0, 2)

    def per(size, values):
        return draw(st.lists(values, min_size=size, max_size=size))

    return {
        "table": table,
        "probes": probes,
        "tclass": draw(st.integers(0, classes - 1)),
        "vc": draw(st.integers(0, num_vcs - 1)),
        "size": draw(st.integers(1, 4)),
        # ready relative to the WAKE cycle: earlier (a wait to split),
        # on time, or later (the WAKE re-arms).
        "ready_shift": draw(st.integers(-2, 1)),
        "rr": draw(st.integers(0, num_vcs - 1)),
        "credits": per(num_vcs, credit),
        "cls_credits": per(classes * num_vcs, credit),
        "shared": per(num_vcs, credit),
        "deficit": per(classes, st.integers(-3, 8)),
        "band_pos": [draw(st.integers(0, len(band) - 1)) for band in sim._qos_bands],
        "cls_rr": per(classes, st.integers(0, num_vcs - 1)),
    }


def staged(state: dict) -> tuple[NetworkSimulator, Packet]:
    """A simulator whose next event is the WAKE of one queued packet on
    port ``0 -> first neighbour``, with the drawn port state."""
    sim = copy.deepcopy(pristine(state["table"], state["probes"]))
    dst = sim.topology.neighbors(0)[0]
    packet = Packet(src=0, dst=dst, size_flits=state["size"], tclass=state["tclass"])
    sim.send(packet)
    sim.run(until=0)  # the injection ARRIVE: enqueue + arm the WAKE
    port = sim._ports[dst]
    assert port.count == 1 and port.wake_at == sim._times[0]
    num_vcs = sim._num_vcs
    vc = state["vc"]
    classless = sim._qos is None
    # Move the packet to the drawn VC, ready at the drawn cycle.
    queue = next(q for q in port.queues if q)
    _ready, _packet, from_link = queue.popleft()
    packet.vc = vc
    flat = vc if classless else state["tclass"] * num_vcs + vc
    ready = max(0, port.wake_at + state["ready_shift"])
    port.queues[flat].append((ready, packet, from_link))
    port.rr = state["rr"]
    if classless:
        port.credits[:] = state["credits"]
        return sim, packet
    reserved = state["cls_credits"]
    shared = state["shared"]
    port.cls_credits[:] = reserved
    port.shared_credits[:] = shared
    port.credits[:] = [shared[v] + sum(reserved[v::num_vcs]) for v in range(num_vcs)]
    port.deficit[:] = state["deficit"]
    port.band_pos[:] = state["band_pos"]
    port.cls_rr[:] = state["cls_rr"]
    return sim, packet


@settings(max_examples=300 if _CI else 60, deadline=None, derandomize=_CI)
@given(port_states())
def test_fused_wake_matches_send_loop(state):
    fused, packet = staged(state)
    twin = copy.deepcopy(fused)
    (twin_packet,) = [entry[1] for port in twin._ports.values() for q in port.queues for entry in q]
    wake = fused._times[0]
    before = fused._events_processed
    fused.run(until=wake)
    assert fused._events_processed == before + 1  # exactly the WAKE
    wake_by_hand(twin)
    twin.now = max(twin.now, wake)
    assert snapshot(fused, packet) == snapshot(twin, twin_packet)


def _check_armed_busy(sim: NetworkSimulator, now: int) -> None:
    here = (now, sim._cur_seq)
    for port in sim._ports.values():
        for c, armed in enumerate(port.free_armed):
            if not armed:
                continue
            release = (port.free_at[c], port.free_seq[c])
            assert release > here, f"armed idle channel {c} on {port.u}->{port.v}"
            retry = (port.free_seq[c], _LINK_FREE, port, c)
            assert retry in sim._cal.get(release[0], ()), "armed without a queued retry"


@settings(max_examples=12 if _CI else 4, deadline=None, derandomize=_CI)
@given(
    design=st.sampled_from(("SF", "ODM")),
    qos=st.booleans(),
    rate=st.sampled_from((0.2, 0.4, 0.7)),
    small_buffers=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_armed_channel_is_busy(design, qos, rate, small_buffers, seed):
    topo = make_topology(design, 36 if design == "ODM" else 32, seed=0)
    config = NetworkConfig(buffer_packets=2, deadlock_timeout_cycles=16) if small_buffers else None
    checks = []

    def instrument(sim):
        def check(now):
            _check_armed_busy(sim, now)
            checks.append(now)
            if sim.stats.sent > sim.stats.delivered or now < 200:
                sim.schedule(now + 3, check)

        sim.schedule(1, check)

    window = {"config": config, "warmup": 50, "measure": 150, "seed": seed}
    if qos:
        # Three classes of traffic under the default table.
        result = run_interference(
            topo, mode="noise", rate=rate, instrument=instrument, drain_limit=5_000, **window
        )
        stats = result.stats
    else:
        pattern = make_pattern("uniform_random", topo.active_nodes)
        policy = make_policy(topo, adaptive=True)
        stats = run_synthetic(
            topo, policy, pattern, rate, drain_limit=5_000, instrument=instrument, **window
        )
    assert stats.delivered == stats.sent
    assert len(checks) > 60
