"""Discrete-event memory-network simulator.

Models an input-buffered, virtual-channel router network at packet
granularity with flit-accurate link serialization:

* every directed link has one output queue per virtual channel at its
  upstream router plus a credit counter sized to the downstream input
  buffer (``buffer_packets`` per VC);
* a packet of ``size_flits`` occupies its link for ``size_flits``
  cycles (virtual cut-through), then spends SerDes and wire latency
  before arriving at the next router;
* a packet holds the credit of its inbound link until it starts
  transmission on its outbound link (or is ejected), giving real
  backpressure;
* per-port packet counters expose queue occupancy to adaptive routing
  policies, as in the paper's §IV-B hardware counters.

Events live in a calendar queue (Brown, CACM 1988): a dict from cycle
to a ``deque`` of ``(seq, code, a, b)`` entries, plus a binary heap of
the distinct pending cycles.  Simulation cost therefore scales with
traffic, not with network size times cycles — which is what makes
1296-node sweeps tractable in Python — and almost every event costs a
dict lookup and a deque append instead of a heap sift, because events
land a few cycles ahead and share their cycle with many others.  The
processing order is the total order on ``(time, seq)``: each cycle's
deque is kept sorted by ``seq``.  A fresh push carries the largest
sequence number allocated so far, so it simply appends; only a
reserved-seq ``LINK_FREE`` retry (below) is inserted in order, which
may land in the cycle currently being drained.  :meth:`run` drains a
cycle with ``popleft`` and retires it only once empty, so a
``run(until)`` stop or an exception leaves every unprocessed event
queued.

Hot-path layout (the "fast path"): directed links are keyed by the
packed integer ``u * num_nodes + v`` instead of an ``(u, v)`` tuple;
per-link credits, occupancy count, channel state and wire latency live
on the :class:`_OutPort` itself so one dictionary lookup reaches all
link state; and per-node counter arrays (packets destined to a node,
arrival events targeting it) plus per-node incident-port lists make
:meth:`inflight_to` and :meth:`node_quiescent` cheap instead of
scanning the event queue — the scans the live-reconfiguration drain
loop used to pay on every poll.  The scanning implementation survives
as the reference in the fast-path differential test.

Lazy link bookkeeping: each channel records when it frees as a
``(free_at, free_seq)`` pair instead of scheduling a LINK_FREE event
per transmission.  ``free_seq`` is a *reserved* sequence number,
allocated right after the send's inbound-credit cascade, so every
transmission's release has a fixed place in the ``(time, seq)`` total
order and "is this channel free at the current processing point?" is
the test ``(free_at, free_seq) <= (now, cur_seq)``.  A LINK_FREE event
is pushed (at the reserved seq, so the retry runs at exactly that
release point) only when a send attempt finds every channel busy.  On
uncongested links the event is elided entirely, cutting queue traffic
per hop by a third.  ``golden_simstats.json`` and
``frozen_link_core.json`` under ``tests/network`` pin the order.

Routing reads the policy's decision columns inline: a plain hop after
the first unpacks the destination column's entry for the router, and a
committed hop resolves from the packet's ``commit`` field; only first
hops, column misses and ``-1`` entries, fallback and stale commits
call ``policy.forward`` (see :mod:`repro.network.policies`).  The VC
is a read of the policy's ``vc_keys``.

One send loop: :meth:`_try_send` does the channel scan and arms every
retry, wake and stall for classless and class-aware ports alike; an
installed QoS table changes only which queue it selects and how that
queue's credit is charged.

Fused wake-to-wire hop: most ``WAKE`` events (92% of them in an
SF-1296 uniform-random episode, 83% in the elastic migration one, 88%
in the SF-648 incast one under QoS) find a single-channel port holding
exactly one head-ready packet, a free wire and a credit.  :meth:`run`
dequeues that packet straight from the dispatch — replaying, under a
class table, exactly the deficit, rotation and credit effects
:meth:`_try_send`'s selection has for a lone packet, and calling the
dequeue hook as it does — and hands it to :meth:`_transmit`, the one
transmit tail; every other case falls through to :meth:`_try_send`.

A single-channel port whose ``free_armed[0]`` is set has a busy wire
and a queued LINK_FREE retry, so a send attempt there can do nothing:
the arrival, the credit release and the send loop itself end before
the loop's prologue.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from collections import deque
from collections.abc import Callable

from repro.core.routing import RingBrokenError
from repro.core.virtual_channels import partition_credits
from repro.network.config import NetworkConfig
from repro.network.packet import Packet
from repro.network.policies import RoutingPolicy
from repro.network.stats import SimStats

__all__ = ["NetworkSimulator"]

# Event codes (queue entries are (seq, code, a, b) tuples filed under
# their cycle; tuples beat closures by a wide margin in CPython).  Link
# events carry the _OutPort object itself in slot ``a`` — sequence
# numbers are unique, so an ordered insert never compares past seq.
# LINK_FREE events carry the channel index in slot ``b``.
_ARRIVE = 0
_LINK_FREE = 1
_CALL = 2
_WAKE = 3
_STALL = 4

# Placeholder free_seq installed while a send's inbound-credit release
# cascade runs (before the real sequence number is reserved); larger
# than any reachable sequence number, so the channel reads busy and no
# retry event can be armed against it mid-cascade.
_SEQ_PENDING = 1 << 62


class _OutPort:
    """Per-directed-link output stage: one queue per VC plus link state.

    ``channels`` > 1 models a link implemented as parallel physical
    channels (the bandwidth-matched ODM baseline); each channel can
    carry one packet at a time.  A channel is busy exactly while its
    ``(free_at, free_seq)`` pair sorts after the simulator's current
    processing point ``(now, cur_seq)`` — no per-transmission queued
    event needed.  ``free_armed`` marks channels with a LINK_FREE
    retry event outstanding.  Invariant: an armed channel is busy —
    a retry is armed only on a busy channel, at its release point,
    and the retry disarms it before the send loop runs — so on a
    single-channel port ``free_armed[0]`` alone says that no send can
    start until that retry fires.  The port also owns the link's credit
    counters, queued-packet count, and precomputed SerDes + wire
    latency, so the simulator touches exactly one object per link
    event.
    """

    __slots__ = ("u", "v", "queues", "credits", "count", "free_at",
                 "free_seq", "free_armed", "channels", "rr", "wake_at",
                 "stall_armed", "reserve_debt", "stall_failures", "lat",
                 "cap", "saved_channels", "drop_pids", "cls_credits",
                 "cls_cap", "shared_credits", "cls_count", "cls_rr",
                 "deficit", "band_pos", "cls_debt", "obs_wire", "obs_hw")

    def __init__(self, u: int, v: int, num_vcs: int, channels: int,
                 credits_per_vc: int, lat: int, cap: int) -> None:
        self.u = u
        self.v = v
        self.queues: list[deque] = [deque() for _ in range(num_vcs)]
        self.credits: list[int] = [credits_per_vc] * num_vcs
        self.count = 0  # queued packets across all VCs (occupancy)
        # Channel-busy state is sized to the *real* channel count and
        # survives freezes (which only park ``channels`` at zero): a
        # packet mid-wire on a freshly failed link stays busy until its
        # recorded tail cycle and reserved release seq.
        self.free_at: list[int] = [0] * channels
        self.free_seq: list[int] = [0] * channels
        self.free_armed: list[bool] = [False] * channels
        self.channels = channels
        # Fault support: a frozen/failed link parks its real channel
        # count here and runs with channels == 0 (so the hot path needs
        # no extra state test); packets that were mid-wire when the
        # link failed are listed in drop_pids and dropped on arrival.
        self.saved_channels: int | None = None
        self.drop_pids: set[int] | None = None
        self.rr = 0
        self.wake_at: int | None = None
        self.stall_armed = False
        # Reserve (escape) slots loaned per VC during deadlock recovery;
        # repaid by that VC's next credit release.
        self.reserve_debt: list[int] = [0] * num_vcs
        # Consecutive stall timeouts with reserves exhausted (drives the
        # optional emergency escalation).
        self.stall_failures = 0
        self.lat = lat  # SerDes + wire cycles of this link
        self.cap = cap  # queue capacity for port_load normalization
        # QoS state (armed by NetworkSimulator.install_qos; None on the
        # classless fast path).  When armed, ``queues`` is re-laid-out
        # as a flat ``num_classes x num_vcs`` list (index
        # ``tclass * num_vcs + vc``) and each VC's credit pool is split
        # into per-class reservations plus a shared borrow pool such
        # that ``credits[vc] == shared_credits[vc] + sum over classes
        # of cls_credits[c * num_vcs + vc]`` at all times.
        self.cls_credits: list[int] | None = None  # remaining, per class x vc
        self.cls_cap: list[int] | None = None  # reservation ceiling
        self.shared_credits: list[int] | None = None  # per vc
        self.cls_count: list[int] | None = None  # queued packets per class
        self.cls_rr: list[int] | None = None  # per-class VC rotation
        self.deficit: list[int] | None = None  # DWRR deficit per class
        self.band_pos: list[int] | None = None  # rotation per priority band
        # Reserve-slot loans attributed per class x vc: a loan made for
        # a blocked class is repaid only by that class's own releases,
        # so one class's deadlock recovery can never silently drain
        # another class's credit reservation.
        self.cls_debt: list[int] | None = None
        # Observability state the simulator itself never reads: the
        # latency anatomy parks its per-wire state here (owner-checked)
        # so its per-hop hooks do a single slot load, and the bound
        # enqueue hook keeps the queue's high-water mark in ``obs_hw``
        # (zeroed when probes are installed).
        self.obs_wire = None
        self.obs_hw = 0

    def occupancy(self) -> int:
        """Packets currently buffered across all VCs of this port."""
        return self.count

    def total_reserve_debt(self) -> int:
        """Credits promised to in-flight sends but not yet consumed."""
        return sum(self.reserve_debt)


class NetworkSimulator:
    """Event-driven simulation of one memory network.

    Parameters
    ----------
    topology:
        Object exposing ``active_nodes``, ``neighbors(v)`` and
        ``num_nodes`` (String Figure topologies and all baselines do).
    policy:
        The :class:`~repro.network.policies.RoutingPolicy` making
        per-packet forwarding decisions.
    config:
        :class:`~repro.network.config.NetworkConfig` timing/energy.
    link_latency:
        Optional ``(u, v) -> cycles`` override for per-link wire
        latency (used with 2D placement; default is uniform
        ``config.wire_cycles``).
    sample_free:
        Collect latency/hop percentiles through a streaming quantile
        sketch instead of storing every sample
        (:meth:`SimStats.sample_free`) — identical statistics, O(1)
        memory per delivered packet; opt-in for 1296-node sweeps.
    """

    def __init__(
        self,
        topology,
        policy: RoutingPolicy,
        config: NetworkConfig | None = None,
        link_latency: Callable[[int, int], int] | None = None,
        sample_free: bool = False,
    ) -> None:
        self.topology = topology
        self.policy = policy
        self.config = config or NetworkConfig()
        self.stats = SimStats.sample_free() if sample_free else SimStats()
        self.stats.num_nodes = len(topology.active_nodes)
        self.now = 0
        #: Packet ids, numbered in send order from 0 by each simulator,
        #: so a run's ids (and a tracer's sample) never depend on the
        #: runs made before it in the same process.
        self._packet_ids = itertools.count()
        #: calendar event queue: cycle -> deque of (seq, code, a, b),
        #: sorted by seq; ``_times`` is a heap of exactly its keys.
        self._cal: dict[int, deque] = {}
        self._times: list[int] = []
        #: last sequence number allocated.  Every allocated number is
        #: queued, processed, or an elided LINK_FREE reservation, which
        #: is what keeps :attr:`pending_events` O(1).
        self._seq = 0
        #: sequence number of the event being processed; together with
        #: ``now`` it defines the total-order point the channel-busy
        #: test compares ``(free_at, free_seq)`` against.
        self._cur_seq = 0
        self._n = topology.num_nodes
        #: directed link state, keyed by the packed int ``u * n + v``.
        self._ports: dict[int, _OutPort] = {}
        self._link_latency_fn = link_latency
        self._on_delivery: list[Callable[[Packet, int], None]] = []
        self._on_drop: list[Callable[[Packet, int], None]] = []
        self._arrival_hook: (
            Callable[[int, Packet, object, bool], bool] | None
        ) = None
        #: Installed fault layer (repro.faults); None keeps the arrival
        #: hot path free of fault checks beyond a single identity test.
        self._fault_layer = None
        #: Installed observability probes (repro.obs); None keeps every
        #: hot path free of instrumentation beyond a single identity
        #: test, exactly like the fault layer above.
        self._probes = None
        #: One hook slot per site, each None or the callable the probes
        #: bound to it (see :meth:`bind_probe_hooks`): inject
        #: ``(packet, now)``, arrive ``(node, packet, now)``, enqueue
        #: ``(port, packet, now)``, dequeue ``(port, packet, ready,
        #: now)``, send ``(port, packet, now, tail)`` and deliver
        #: ``(packet, now)``.
        self._hook_inject = None
        self._hook_arrive = None
        self._hook_enqueue = None
        self._hook_dequeue = None
        self._hook_send = None
        self._hook_deliver = None
        #: Installed QoS class table (repro.network.qos.QoSConfig);
        #: None keeps the classless arbitration/credit fast path
        #: bit-identical behind single ``is None`` tests.
        self._qos = None
        self._num_vcs = policy.num_vcs
        #: per-class port-load closures handed to the routing policy
        #: (class c sees the queued packets of every class at its own
        #: priority or higher); empty until install_qos.
        self._class_load_cbs: tuple = ()
        self._qos_bands: tuple = ()
        self._qos_band_of: tuple = ()
        #: per class, the classes of every higher-priority band.
        self._qos_above: tuple = ()
        self._qos_weights: tuple = ()
        self._qos_quantum = 0
        n = self._n
        #: packets in the network destined to each node (O(1) inflight_to).
        self._dst_inflight: list[int] = [0] * n
        #: queued _ARRIVE events targeting each node.
        self._pending_arrive: list[int] = [0] * n
        #: ports incident to each node, for the queued/wire-busy scan.
        self._node_ports: list[list[_OutPort]] = [[] for _ in range(n)]
        self._bits_cache: dict[int, float] = {}
        self._events_processed = 0
        #: LINK_FREE events the simulator never had to schedule.
        self._link_events_elided = 0
        self.max_events = 200_000_000
        self._router_cycles = self.config.router_cycles
        #: stable bound method handed to policies every forward —
        #: policies key their fast load probes on its identity.
        self._port_load_cb = self.port_load
        # Pre-create every directed port of the topology up front: port
        # construction emits no events and allocates no sequence
        # numbers, so doing it here (instead of lazily at first use) is
        # behaviorally invisible — it just moves allocation out of the
        # timed hot path and lets policies resolve load probes eagerly.
        for u in topology.active_nodes:
            for v in topology.neighbors(u):
                self._port(u, v)
        attach = getattr(policy, "attach_simulator", None)
        if attach is not None:
            attach(self)

    # -- wiring helpers -----------------------------------------------------

    def _port(self, u: int, v: int) -> _OutPort:
        lid = u * self._n + v
        port = self._ports.get(lid)
        if port is None:
            channels = getattr(self.topology, "link_channels", None)
            count = channels(u, v) if channels is not None else 1
            config = self.config
            num_vcs = self.policy.num_vcs
            if self._link_latency_fn is not None:
                wire = self._link_latency_fn(u, v)
            else:
                wire = config.wire_cycles
            port = _OutPort(
                u, v, num_vcs, count,
                credits_per_vc=config.buffer_packets * count,
                lat=config.serdes_cycles + wire,
                cap=config.buffer_packets * num_vcs * count,
            )
            self._ports[lid] = port
            self._node_ports[u].append(port)
            if v != u:
                self._node_ports[v].append(port)
            if self._qos is not None:
                self._arm_qos_port(port)
        return port

    def port_load(self, u: int, v: int) -> float:
        """Output-queue occupancy fraction of link ``u -> v``.

        Capacity scales with the link's physical channel count, so a
        multi-channel (ODM) link at the same queue depth reports a
        proportionally lower occupancy fraction to adaptive routing.
        """
        port = self._ports.get(u * self._n + v)
        if port is None:
            return 0.0
        return min(1.0, port.count / port.cap)

    def on_delivery(self, callback: Callable[[Packet, int], None]) -> None:
        """Register ``callback(packet, time)`` to run at each ejection."""
        self._on_delivery.append(callback)

    def set_arrival_hook(
        self,
        hook: Callable[[int, Packet, object, bool], bool] | None,
    ) -> None:
        """Install ``hook(node, packet, from_link, first_hop) -> bool``.

        The hook runs before each non-terminal arrival is forwarded.
        ``from_link`` is an opaque inbound-link token (``None`` at
        injection); hand it back unchanged to :meth:`rearrive` or
        :meth:`release_inbound`.  Returning ``True`` means the hook
        took ownership of the arrival (e.g. parked it during a
        reconfiguration window) and must later hand it back via
        :meth:`rearrive`; the simulator then does nothing further for
        this event.  A hook that absorbs the packet into local storage
        should return its inbound-link credit with
        :meth:`release_inbound`, or keep it for exact backpressure.
        Live reconfiguration (:mod:`repro.network.elastic`) is the one
        intended client.
        """
        self._arrival_hook = hook

    def rearrive(
        self,
        node: int,
        packet: Packet,
        from_link,
        first_hop: bool = False,
        delay: int = 0,
    ) -> None:
        """Re-enter a held or re-routed arrival into the event loop."""
        self._pending_arrive[node] += 1
        self._push(self.now + delay, _ARRIVE, node, (packet, from_link, first_hop))

    def release_inbound(self, link, vc: int, tclass: int = 0) -> None:
        """Return an inbound-link credit early (packet absorbed locally).

        Live reconfiguration calls this when it parks a packet: the
        router's local hold buffer absorbs the packet, so the credit
        goes back upstream instead of starving the network for the
        whole blocked window.  ``link`` is the opaque inbound-link
        token from the arrival hook (a ``(u, v)`` tuple also works).
        ``tclass`` is the absorbed packet's traffic class; under an
        installed QoS table it routes the repayment to the right
        per-class credit pool and is ignored otherwise.
        """
        if not isinstance(link, _OutPort):
            link = self._ports[link[0] * self._n + link[1]]
        self._release_credit(link, vc, tclass)

    # -- fault support -----------------------------------------------------

    def install_fault_layer(self, layer) -> None:
        """Attach a :class:`repro.faults.FaultLayer` (or None to detach).

        The layer's ``intercept(node, packet, from_link, first_hop)``
        runs at the head of every arrival (before delivery and before
        the reconfiguration arrival hook) and may drop or park the
        packet.  Without a layer the arrival path pays exactly one
        ``is None`` test, keeping no-fault runs bit-identical and fast.
        """
        self._fault_layer = layer

    # -- observability support ---------------------------------------------

    def install_probes(self, probes) -> None:
        """Attach :class:`repro.obs.FabricProbes` (or None to detach).

        The probes object only *observes*: its hooks run behind single
        ``is None`` tests at the event loop and packet lifecycle
        points, and it never schedules events or allocates sequence
        numbers, so both the uninstrumented and the instrumented run
        produce bit-identical ``SimStats`` (checked by the differential
        suite in ``tests/obs``).  Prefer
        :meth:`repro.obs.FabricProbes.attach_sim`, which also registers
        the simulator's pull metrics.

        Note: :meth:`run` hoists the event counter and the per-event
        hook once per call, so probes installed mid-``run`` count
        events from the next ``run`` (the daemon advances in quanta,
        so a live install lands at the next quantum boundary).
        """
        old = self._probes
        if old is not None and old is not probes:
            old.unbind()
        self._probes = probes
        if probes is not None:
            probes.bind(self)
        self.bind_probe_hooks()

    def bind_probe_hooks(self) -> None:
        """Fill the six hook slots from the installed probes.

        Each slot gets the cheapest callable serving every consumer the
        probes hold (:meth:`repro.obs.FabricProbes.hook_slots`), or
        None.  The probes call this again whenever their consumers
        change, so a slot is always current at its site.
        """
        probes = self._probes
        (
            self._hook_inject, self._hook_arrive, self._hook_enqueue,
            self._hook_dequeue, self._hook_send, self._hook_deliver,
        ) = (None,) * 6 if probes is None else probes.hook_slots()

    # -- QoS support -------------------------------------------------------

    def install_qos(self, qos) -> None:
        """Install a :class:`repro.network.qos.QoSConfig` class table.

        Must run before any traffic (the per-class credit partition is
        derived from the full pools): every existing port — and every
        port created later — gets its output queues re-laid-out per
        class, its credits split into per-class reservations plus a
        shared borrow pool, and its selection in the send loop
        (:meth:`_try_send`) switched to strict priority across bands
        with deficit-weighted round-robin within a band.  Routing
        policies are re-attached so adaptive scoring sees class-aware
        port loads.
        Without this call the simulator takes the classless fast path,
        bit-identical to builds without QoS.
        """
        if qos is None:
            raise ValueError("install_qos requires a QoSConfig, not None")
        if self._qos is not None:
            raise RuntimeError("a QoS class table is already installed")
        if self.stats.sent or self._events_processed:
            raise RuntimeError(
                "install_qos must run before any traffic (credit pools "
                "are partitioned from their initial full state)"
            )
        self._qos = qos
        bands = qos.bands()
        self._qos_bands = tuple(tuple(band) for band in bands)
        band_of = [0] * qos.num_classes
        for band_idx, members in enumerate(bands):
            for cls_id in members:
                band_of[cls_id] = band_idx
        self._qos_band_of = tuple(band_of)
        self._qos_above = tuple(
            tuple(k for members in bands[: band_of[c]] for k in members)
            for c in range(qos.num_classes)
        )
        self._qos_weights = tuple(cls.weight for cls in qos.classes)
        self._qos_quantum = qos.drr_quantum
        for port in self._ports.values():
            self._arm_qos_port(port)
        # Per-class load closures: class c's view of a port is the
        # occupancy of every class at its priority or higher — lower
        # priority traffic will be arbitrated around, so it should not
        # deter adaptive routing.  Each closure carries its class-id
        # group as ``qos_ids`` so GreedyPolicy's integer quick-reject
        # can recognize it (see policies.attach_simulator).
        ports = self._ports
        n = self._n
        cbs = []
        for cls in qos.classes:
            ids = tuple(
                other.id for other in qos.classes
                if other.priority <= cls.priority
            )

            def class_load(u: int, v: int, _ids=ids) -> float:
                port = ports.get(u * n + v)
                if port is None:
                    return 0.0
                cls_count = port.cls_count
                queued = 0
                for k in _ids:
                    queued += cls_count[k]
                return min(1.0, queued / port.cap)

            class_load.qos_ids = ids
            cbs.append(class_load)
        self._class_load_cbs = tuple(cbs)
        attach = getattr(self.policy, "attach_simulator", None)
        if attach is not None:
            attach(self)

    def _arm_qos_port(self, port: _OutPort) -> None:
        """Re-lay-out one port's queues and credits for the class table.

        Only ever runs on a traffic-free port (install_qos pre-dates
        traffic and lazy port creation allocates empty ports), so the
        flat per-class queues start empty and each VC's pool is split
        from its full credit count.
        """
        qos = self._qos
        num_vcs = self._num_vcs
        num_classes = qos.num_classes
        shares = [cls.credit_share for cls in qos.classes]
        port.queues = [deque() for _ in range(num_classes * num_vcs)]
        cls_cap: list[int] = [0] * (num_classes * num_vcs)
        shared: list[int] = [0] * num_vcs
        for vc in range(num_vcs):
            reserved, spill = partition_credits(port.credits[vc], shares)
            for cls_id, amount in enumerate(reserved):
                cls_cap[cls_id * num_vcs + vc] = amount
            shared[vc] = spill
        port.cls_cap = cls_cap
        port.cls_credits = list(cls_cap)
        port.shared_credits = shared
        port.cls_count = [0] * num_classes
        port.cls_rr = [0] * num_classes
        port.deficit = [0] * num_classes
        port.band_pos = [0] * len(self._qos_bands)
        port.cls_debt = [0] * (num_classes * num_vcs)

    def on_drop(self, callback: Callable[[Packet, int], None]) -> None:
        """Register ``callback(packet, time)`` to run at each drop."""
        self._on_drop.append(callback)

    def drop_packet(self, packet: Packet, from_link=None) -> None:
        """Remove *packet* from the network without delivering it.

        The loss is counted in ``stats.dropped`` (making the checkable
        conservation law ``sent == delivered + dropped``), the packet's
        destined-in-flight slot is released, its inbound-link credit
        (if any) returns upstream, and drop callbacks — e.g. a
        retransmission queue — fire.  Only fault machinery calls this;
        plain simulation never drops.
        """
        stats = self.stats
        stats.dropped += 1
        dst = packet.dst
        remaining = self._dst_inflight[dst] - 1
        if remaining < 0:
            raise RuntimeError(
                f"destined-in-flight counter for node {dst} went negative "
                "on drop (double drop? dropping a delivered packet?)"
            )
        self._dst_inflight[dst] = remaining
        if from_link is not None:
            self._release_credit(from_link, packet.vc, packet.tclass)
        for callback in self._on_drop:
            callback(packet, self.now)
        probes = self._probes
        if probes is not None:
            probes.on_drop(packet, self.now)

    def freeze_link(self, u: int, v: int) -> None:
        """Stop transmissions on directed link ``u -> v`` (no loss).

        Queued packets stay queued (their buffers are at the upstream
        router and survive); packets already on the wire arrive
        normally.  Implemented by parking the channel count at zero, so
        ``_try_send`` refuses without any new hot-path state test.
        Models a hung downstream router: link-level flow control stops,
        backpressure spreads.
        """
        port = self._port(u, v)
        if port.saved_channels is None:
            port.saved_channels = port.channels
            port.channels = 0

    def restore_link(self, u: int, v: int) -> None:
        """Re-enable a frozen/failed link and resume its queue."""
        port = self._ports.get(u * self._n + v)
        if port is None or port.saved_channels is None:
            return
        port.channels = port.saved_channels
        port.saved_channels = None
        if port.count:
            self._try_send(port)

    def fail_links(self, pairs) -> int:
        """Hard-fail the directed links *pairs*: freeze them and doom
        the packets currently mid-wire on them.

        The mid-wire packets' arrival events cannot be pulled out of
        the queue, so their pids are recorded on their port and the
        fault layer drops them when they fire — exactly the packets
        that were in flight across the failed links, no more.  Returns
        how many were doomed.  Queued packets are left for the detector
        to sweep (:meth:`take_queued`) once the failure is noticed.
        The event queue is scanned *once* for the whole batch, so a node
        crash (2 x degree directed links) costs one pass, not 2 x degree.
        """
        ports = set()
        n = self._n
        for u, v in pairs:
            self.freeze_link(u, v)
            port = self._ports[u * n + v]
            if port.drop_pids is None:
                port.drop_pids = set()
            ports.add(port)
        count = 0
        for _time, _seq, code, _a, b in self._queued_events():
            if code == _ARRIVE and b is not None and b[1] in ports:
                b[1].drop_pids.add(b[0].pid)
                count += 1
        return count

    def fail_link(self, u: int, v: int) -> int:
        """Hard-fail one directed link (see :meth:`fail_links`)."""
        return self.fail_links(((u, v),))

    def link_frozen(self, u: int, v: int) -> bool:
        """Whether directed link ``u -> v`` is currently frozen/failed."""
        port = self._ports.get(u * self._n + v)
        return port is not None and port.saved_channels is not None

    # -- reconfiguration support -------------------------------------------

    def inflight_to(self, node: int) -> int:
        """Packets currently in the network destined to *node* (O(1))."""
        return self._dst_inflight[node]

    def take_queued(self, u: int, v: int) -> list[tuple[Packet, object]]:
        """Remove and return all packets queued on output port ``u -> v``.

        Used when a link is disabled mid-run: the caller re-routes the
        queued packets (they have not consumed this link's credit yet,
        so only their inbound-link credit travels with them).  Packets
        already on the wire (busy channels) are not touched — their
        arrival events complete normally, modeling the topology switch
        waiting out the last in-flight flits.
        """
        port = self._ports.get(u * self._n + v)
        if port is None:
            return []
        taken: list[tuple[Packet, object]] = []
        for queue in port.queues:
            while queue:
                _ready, packet, from_link = queue.popleft()
                taken.append((packet, from_link))
        removed = len(taken)
        port.count -= removed
        if port.cls_count is not None:
            port.cls_count[:] = [0] * len(port.cls_count)
        return taken

    def _busy_channels(self, port: _OutPort) -> int:
        """Channels of *port* mid-transmission at the current event.

        A channel is busy while its ``(free_at, free_seq)`` release
        point sorts strictly after ``(now, cur_seq)``: its release has
        not been reached in the total order yet.
        The scan covers the *full* channel list (not the live
        ``channels`` count), so a frozen or failed link still reports
        its last in-flight packet until the wire drains.
        """
        now = self.now
        cur_seq = self._cur_seq
        free_seq = port.free_seq
        busy = 0
        for c, fa in enumerate(port.free_at):
            if fa > now or (fa == now and free_seq[c] > cur_seq):
                busy += 1
        return busy

    def node_quiescent(self, node: int) -> bool:
        """Whether *node* carries no traffic at all right now.

        True when nothing is destined to it, none of its output queues
        hold packets, no packet is mid-wire on a link into or out of
        it, and no arrival event targets it.  Reconfiguration waits for
        this before powering the node's links down.  Counter checks
        are O(1); the queued and mid-wire checks scan the node's
        incident ports (O(degree), with small constants — queue counts
        and channel release times live on the port, no event-queue
        access).
        """
        if self._dst_inflight[node] or self._pending_arrive[node]:
            return False
        for port in self._node_ports[node]:
            if port.count or self._busy_channels(port):
                return False
        return True

    # -- scheduling --------------------------------------------------------------

    def _push(self, time: int, code: int, a, b) -> None:
        """Queue an event under a fresh sequence number.

        The fresh number is the largest allocated so far, so the entry
        appends to its cycle's deque and the deque stays seq-sorted.
        """
        seq = self._seq + 1
        self._seq = seq
        queue = self._cal.get(time)
        if queue is None:
            self._open_cycle(time, (seq, code, a, b))
        else:
            queue.append((seq, code, a, b))

    def _push_reserved(self, time: int, seq: int, code: int, a, b) -> None:
        """Queue an event under a sequence number reserved earlier.

        Used for LINK_FREE retries, each at the release seq its
        transmission reserved.  The number may predate entries
        already filed under *time* — including those of the cycle being
        drained, whose deque stays live until empty — so the entry is
        inserted in seq order.  Sequence numbers are unique, so the
        tuple comparison never looks past ``seq``.
        """
        queue = self._cal.get(time)
        if queue is None:
            self._open_cycle(time, (seq, code, a, b))
        else:
            bisect.insort(queue, (seq, code, a, b))

    def _open_cycle(self, time: int, entry: tuple) -> None:
        """File *entry* as the first event of the not-yet-pending *time*."""
        self._cal[time] = deque((entry,))
        heapq.heappush(self._times, time)

    def _queued_events(self):
        """Yield every queued event as ``(time, seq, code, a, b)``.

        Cycles come in no particular order (seq order within a cycle).
        For the rare whole-queue scans of the fault and reconfiguration
        paths; never used on the hot path.
        """
        for time, queue in self._cal.items():
            for seq, code, a, b in queue:
                yield time, seq, code, a, b

    def schedule(self, time: int, callback: Callable[[int], None]) -> None:
        """Run ``callback(now)`` at *time* (for traffic drivers, memory
        service models, reconfiguration scripts, ...)."""
        self._push(max(time, self.now), _CALL, callback, None)

    def send(self, packet: Packet, time: int | None = None) -> None:
        """Inject *packet* into the network at *time* (default: now),
        giving it this simulator's next packet id.

        Injection enters through the terminal port, so it consumes no
        network credits; the source router makes its (adaptive)
        decision when the packet arrives at the head of the NIC.
        """
        t = self.now if time is None else max(time, self.now)
        packet.pid = next(self._packet_ids)
        packet.inject_time = t
        # The policy's select_vc, as an array read.
        policy = self.policy
        keys = policy.vc_keys
        packet.vc = (
            0 if policy.num_vcs < 2 or keys[packet.src] <= keys[packet.dst] else 1
        )
        self.stats.sent += 1
        self.stats.injected += int(packet.measured)
        self._dst_inflight[packet.dst] += 1
        self._pending_arrive[packet.src] += 1
        hook = self._hook_inject
        if hook is not None:
            hook(packet, t)
        self._push(t, _ARRIVE, packet.src, (packet, None, True))

    # -- event processing -------------------------------------------------------------

    def _deliver(self, node: int, packet: Packet, from_link) -> None:
        packet.arrive_time = self.now
        stats = self.stats
        stats.delivered += 1
        dst = packet.dst
        remaining = self._dst_inflight[dst] - 1
        if remaining < 0:
            raise RuntimeError(
                f"destined-in-flight counter for node {dst} went negative "
                "(double delivery? a hook re-entered a packet it did not own?)"
            )
        self._dst_inflight[dst] = remaining
        if packet.measured:
            stats.measured_delivered += 1
            stats.latency.add(packet.latency)
            stats.hops.add(packet.hops)
            stats.flit_delivered += packet.size_flits
            stats.fallback_hops += packet.fallback_hops
            stats.total_hops += packet.hops
        if from_link is not None:
            self._release_credit(from_link, packet.vc, packet.tclass)
        for callback in self._on_delivery:
            callback(packet, self.now)
        hook = self._hook_deliver
        if hook is not None:
            hook(packet, self.now)

    def _process_arrival(self, node: int, payload) -> None:
        packet, from_link, first_hop = payload
        self._pending_arrive[node] -= 1
        probes = self._probes
        if probes is not None and self._hook_arrive is not None:
            self._hook_arrive(node, packet, self.now)
        fault = self._fault_layer
        if fault is not None and fault.intercept(node, packet, from_link, first_hop):
            # Dropped (lost) or parked at a hung node: no enqueue or
            # deliver hook will see this arrival, so the probes do here.
            if probes is not None:
                probes.on_hold(packet, self.now)
            return
        dst = packet.dst
        if node == dst:
            self._deliver(node, packet, from_link)
            return
        if self._arrival_hook is not None and self._arrival_hook(
            node, packet, from_link, first_hop
        ):
            # Parked: the hook re-enters it via rearrive().
            if probes is not None:
                probes.on_hold(packet, self.now)
            return
        qos = self._qos
        policy = self.policy
        # Plain hops after the first read the destination's column; a
        # committed hop takes dst when its entry is exactly ``dst *
        # stride`` (direct delivery wins), else a still-usable commit.
        # Everything else asks the policy.
        nxt = -1
        columns = policy.columns
        if not first_hop and columns is not None and packet.fallback_md is None:
            column = columns.get(dst)
            if column is not None:
                entry = column[node]
                commit = packet.commit
                if commit < 0:
                    if entry >= 0:
                        nxt, commit = divmod(entry, policy.column_stride)
                        packet.commit = commit - 1
                elif entry == dst * policy.column_stride:
                    nxt = dst
                    packet.commit = -1
                elif commit in policy.nbr_index[node]:
                    nxt = commit
                    packet.commit = -1
        if nxt < 0:
            load = self._port_load_cb if qos is None else self._class_load_cbs[packet.tclass]
            try:
                nxt = policy.forward(node, packet, load, first_hop)
            except RingBrokenError:
                if fault is None:
                    raise
                # Stranded where failures broke the ring: a loss the
                # fault layer retransmits or abandons like any other.
                fault.drop_stranded(packet, from_link)
                if probes is not None:
                    probes.on_hold(packet, self.now)
                return
        port = self._ports.get(node * self._n + nxt)
        if port is None:
            port = self._port(node, nxt)
        stats = self.stats
        stats.queue_samples += 1
        stats.queue_total += port.count
        now = self.now
        rc = self._router_cycles
        was_empty = not port.count
        if qos is None:
            port.queues[packet.vc].append((now + rc, packet, from_link))
        else:
            tclass = packet.tclass
            port.queues[tclass * self._num_vcs + packet.vc].append(
                (now + rc, packet, from_link)
            )
            port.cls_count[tclass] += 1
        port.count += 1
        if probes is not None:
            hook = self._hook_enqueue
            if hook is not None:
                hook(port, packet, now)
        if port.channels == 1:
            armed = port.free_armed
            if armed[0]:
                return  # wire busy, retry queued: nothing can send
            if was_empty and rc:
                # Dominant case inlined: the packet just queued on an
                # empty single-channel port and cannot be ready before
                # ``now + router_cycles``, so a full _try_send scan can
                # only ever arm one retry event.  Replicates exactly its
                # two reachable outcomes: wire free -> arm the
                # head-ready wake; wire busy -> arm the channel's
                # LINK_FREE retry.
                fa = port.free_at[0]
                if fa < now or (fa == now and port.free_seq[0] <= self._cur_seq):
                    ready = now + rc
                    if port.wake_at is None or port.wake_at > ready:
                        port.wake_at = ready
                        self._push(ready, _WAKE, port, None)
                else:
                    armed[0] = True
                    self._link_events_elided -= 1
                    self._push_reserved(fa, port.free_seq[0], _LINK_FREE, port, 0)
                return
        self._try_send(port)

    def _release_credit(self, port: _OutPort, vc: int, tclass: int = 0) -> None:
        debt = port.reserve_debt
        if self._qos is None:
            if debt[vc] > 0:
                # A reserve (escape) slot was loaned to this VC during
                # deadlock recovery; repay it before restoring normal
                # credits, so downstream buffering stays bounded.
                debt[vc] -= 1
            else:
                port.credits[vc] += 1
        else:
            flat = tclass * self._num_vcs + vc
            cls_debt = port.cls_debt
            if cls_debt[flat] > 0:
                # Repay only this class's own loans: debt swallowing is
                # class-attributed, so one class's deadlock recovery
                # never drains another class's reservation (a
                # class-blind swallow would let background stalls
                # siphon the latency class's credits into thin air).
                cls_debt[flat] -= 1
                debt[vc] -= 1
            else:
                port.credits[vc] += 1
                # Repay the releasing class's reservation first (up to
                # its ceiling), overflow to the shared borrow pool —
                # the inverse of _try_send's class-aware consume rule.
                cls_credits = port.cls_credits
                if cls_credits[flat] < port.cls_cap[flat]:
                    cls_credits[flat] += 1
                else:
                    port.shared_credits[vc] += 1
        if port.count and not (port.free_armed[0] and port.channels == 1):
            self._try_send(port)

    def _try_send(self, port: _OutPort) -> None:
        """The one send loop: move *port*'s head-ready packets onto its wire.

        Each pass finds a free channel, selects a head-ready packet
        whose credit is available, charges the credit and hands the
        packet to :meth:`_transmit`.  When nothing can go, it arms
        exactly the events that make progress: a reserved-seq
        LINK_FREE retry when every channel is busy, a WAKE at the
        earliest head-ready cycle (plus the earliest busy channel that
        frees by then), and a STALL timer when a ready packet lacks a
        credit.

        Only selection and credit consumption depend on an installed
        QoS class table.  Classless, VCs rotate round-robin
        (``port.rr``) and a packet spends its VC's credit.  Class-aware,
        selection is strict priority across bands — a band is consulted
        only when every higher band has no head-ready packet with an
        available credit — and deficit-weighted round-robin within a
        band: the rotation (``port.band_pos``) parks on a class while
        its deficit counter lasts (refilled with ``weight x
        drr_quantum`` flits when the rotation reaches it) and advances
        when the deficit is spent or the class has nothing sendable.
        Within a class, VCs rotate round-robin (``port.cls_rr``).  A
        class can send when its own credit reservation *or* the shared
        borrow pool has a credit — the work-conserving half of the
        partition — and pays from its reservation first.
        """
        # Hot path: iterative (the tail call used to recurse once per
        # transmission), with everything loop-invariant hoisted.  The
        # hoisted lists are mutated in place everywhere, so re-entrant
        # cascades stay visible through them.  The cheap guards run
        # before the prologue: calls on an empty port, a frozen link or
        # a single wire that is busy with its retry armed do no work.
        channels = port.channels
        if not port.count or not channels or (
            channels == 1 and port.free_armed[0]
        ):
            return
        now = self.now
        cur_seq = self._cur_seq
        free_at = port.free_at
        free_seq = port.free_seq
        armed = port.free_armed
        queues = port.queues
        credits = port.credits
        num_vcs = len(credits)
        dequeue_hook = self._hook_dequeue
        transmit = self._transmit
        classless = self._qos is None
        if not classless:
            cls_credits = port.cls_credits
            shared = port.shared_credits
            cls_count = port.cls_count
            cls_rr = port.cls_rr
            deficit = port.deficit
            band_pos = port.band_pos
            bands = self._qos_bands
            band_of = self._qos_band_of
            quantum = self._qos_quantum
            weights = self._qos_weights
        while True:
            if not port.count:
                return  # nothing queued on any VC: skip every scan
            channels = port.channels
            if not channels:
                return  # frozen/failed link: never transmits
            if channels == 1:
                # Overwhelmingly common wire shape: test channel 0
                # directly instead of scanning.
                fa = free_at[0]
                if fa < now or (fa == now and free_seq[0] <= cur_seq):
                    chan = 0
                else:
                    chan = -1
            else:
                chan = -1
                for c in range(channels):
                    fa = free_at[c]
                    if fa < now or (fa == now and free_seq[c] <= cur_seq):
                        chan = c
                        break
            if chan < 0:
                # Every channel is mid-transmission.  Arm one retry at
                # the earliest release point; pushed with the
                # *reserved* sequence number, the retry processes at
                # that transmission's own place in the total order.
                best = 0
                bfa = free_at[0]
                bfs = free_seq[0]
                for c in range(1, channels):
                    fa = free_at[c]
                    if fa < bfa or (fa == bfa and free_seq[c] < bfs):
                        best = c
                        bfa = fa
                        bfs = free_seq[c]
                if not armed[best]:
                    armed[best] = True
                    self._link_events_elided -= 1
                    self._push_reserved(bfa, bfs, _LINK_FREE, port, best)
                return
            # Selection: ``chosen_vc`` and the queue index ``flat``
            # (``tclass * num_vcs + vc`` under a class table).
            chosen_vc = -1
            min_ready = None
            credit_blocked = False
            if classless:
                rr = port.rr
                for i in range(num_vcs):
                    vc = rr + i
                    if vc >= num_vcs:
                        vc -= num_vcs
                    queue = queues[vc]
                    if not queue:
                        continue
                    ready = queue[0][0]
                    if ready > now:
                        if min_ready is None or ready < min_ready:
                            min_ready = ready
                        continue
                    if credits[vc] <= 0:
                        credit_blocked = True
                        continue  # retried on credit release
                    chosen_vc = flat = vc
                    break
            else:
                for band_idx, members in enumerate(bands):
                    m = len(members)
                    pos = band_pos[band_idx]
                    for _step in range(m):
                        cls = members[pos]
                        if cls_count[cls]:
                            rr = cls_rr[cls]
                            base = cls * num_vcs
                            for i in range(num_vcs):
                                vc = rr + i
                                if vc >= num_vcs:
                                    vc -= num_vcs
                                queue = queues[base + vc]
                                if not queue:
                                    continue
                                ready = queue[0][0]
                                if ready > now:
                                    if min_ready is None or ready < min_ready:
                                        min_ready = ready
                                    continue
                                if cls_credits[base + vc] <= 0 and shared[vc] <= 0:
                                    credit_blocked = True
                                    continue  # retried on credit release
                                chosen_vc = vc
                                break
                            if chosen_vc >= 0:
                                if deficit[cls] <= 0:
                                    deficit[cls] += quantum * weights[cls]
                                chosen_cls = cls
                                flat = base + chosen_vc
                                band_pos[band_idx] = pos
                                break
                        # Nothing sendable for this class right now:
                        # drop its leftover deficit (standard DRR — an
                        # idle or blocked class must not hoard service)
                        # and rotate.
                        deficit[cls] = 0
                        pos += 1
                        if pos >= m:
                            pos = 0
                    if chosen_vc >= 0:
                        break
            if chosen_vc < 0:
                if min_ready is not None:
                    if port.wake_at is None or port.wake_at > min_ready:
                        port.wake_at = min_ready
                        self._push(min_ready, _WAKE, port, None)
                    # A busy channel that frees at (or before) the head
                    # packet's ready cycle releases ahead of the wake —
                    # its reserved sequence number predates the wake's
                    # — so the transmission starts at that earlier
                    # release point.  Arm the earliest such channel so
                    # the send happens there; if it fires before the
                    # head is ready it re-enters here and arms the
                    # next.
                    best = -1
                    bfa = bfs = 0
                    for c in range(channels):
                        fa = free_at[c]
                        fs = free_seq[c]
                        if (fa > now or (fa == now and fs > cur_seq)) and (
                            fa <= min_ready
                        ) and (
                            best < 0 or fa < bfa or (fa == bfa and fs < bfs)
                        ):
                            best = c
                            bfa = fa
                            bfs = fs
                    if best >= 0 and not armed[best]:
                        armed[best] = True
                        self._link_events_elided -= 1
                        self._push_reserved(bfa, bfs, _LINK_FREE, port, best)
                if credit_blocked and not port.stall_armed:
                    port.stall_armed = True
                    self._push(
                        now + self.config.deadlock_timeout_cycles,
                        _STALL, port, None,
                    )
                    probes = self._probes
                    if probes is not None:
                        probes.on_credit_stall(port, now)
                return
            _ready, packet, from_link = queues[flat].popleft()
            port.count -= 1
            # The aggregate per-VC counter always moves (the stall and
            # escape machinery reasons about it).
            credits[chosen_vc] -= 1
            next_vc = chosen_vc + 1 if chosen_vc + 1 < num_vcs else 0
            if classless:
                port.rr = next_vc
            else:
                cls_count[chosen_cls] -= 1
                cls_rr[chosen_cls] = next_vc
                if cls_credits[flat] > 0:
                    cls_credits[flat] -= 1
                else:
                    shared[chosen_vc] -= 1
                deficit[chosen_cls] -= packet.size_flits
                if deficit[chosen_cls] <= 0:
                    # Quantum spent: rotate this band past the class.
                    band_idx = band_of[chosen_cls]
                    pos = band_pos[band_idx] + 1
                    band_pos[band_idx] = 0 if pos >= len(bands[band_idx]) else pos
            if dequeue_hook is not None:
                dequeue_hook(port, packet, _ready, now)
            transmit(port, chan, packet, from_link)

    def _transmit(self, port: _OutPort, chan: int, packet: Packet,
                  from_link) -> None:
        """Put the dequeued *packet* on channel *chan* of *port*.

        The one transmit tail of the send loop (:meth:`_try_send`) and
        :meth:`run`'s fused wake-to-wire hop: claim the channel,
        release the inbound credit (which may cascade), reserve the
        channel's release seq and then the arrival's, and account the
        hop.
        """
        now = self.now
        size = packet.size_flits
        tail = now + size
        free_seq = port.free_seq
        armed = port.free_armed
        # Claim the channel *before* releasing the inbound credit: the
        # release can cascade through a blocked cycle back into this
        # port, and a re-entrant _try_send seeing a stale-free channel
        # would drive a second packet onto a single-channel wire.  The
        # real release sequence number is reserved only *after* the
        # cascade, which fixes the release's place in the total order;
        # until then the placeholder keeps the channel unambiguously
        # busy and un-armable.
        port.free_at[chan] = tail
        free_seq[chan] = _SEQ_PENDING
        armed[chan] = True
        if from_link is not None:
            self._release_credit(from_link, packet.vc, packet.tclass)
        seq = self._seq + 1
        self._seq = seq
        free_seq[chan] = seq
        armed[chan] = False
        self._link_events_elided += 1
        packet.hops += 1
        nbytes = packet.payload_bytes
        bits = self._bits_cache.get(nbytes)
        if bits is None:
            bits = self.config.packet_bits(nbytes)
            self._bits_cache[nbytes] = bits
        stats = self.stats
        stats.bit_hops += bits
        stats.flit_hops += size
        v = port.v
        self._pending_arrive[v] += 1
        self._push(tail + port.lat, _ARRIVE, v, (packet, port, False))
        hook = self._hook_send
        if hook is not None:
            hook(port, packet, now, tail)

    def _recover_stall(self, port: _OutPort) -> None:
        """Escape-buffer deadlock recovery (see module docstring).

        If the link is still credit-blocked after the stall timeout,
        loan one reserve buffer slot of the downstream router to the
        blocked VC with the oldest head packet.  The loan is repaid by
        the next credit release, so downstream buffering stays within
        ``buffer_packets + reserve_slots`` per VC.

        With ``config.emergency_stall_threshold`` set, a link that
        stays fully wedged (blocked with every reserve slot loaned out)
        for that many consecutive timeouts may loan *beyond* the
        reserve bound — router-local elastic overflow that breaks
        persistent cyclic stalls, such as the ones a reconfiguration
        transient can leave behind in a saturated network.  Each
        over-bound loan is counted in ``stats.emergency_loans``.
        """
        port.stall_armed = False
        channels = port.channels
        if not channels:
            return
        now = self.now
        cur_seq = self._cur_seq
        free_at = port.free_at
        free_seq = port.free_seq
        for c in range(channels):
            fa = free_at[c]
            if fa < now or (fa == now and free_seq[c] <= cur_seq):
                break
        else:
            return  # every channel busy: recovery can't transmit anyway
        credits = port.credits
        qos = self._qos
        if qos is None:
            blocked = [
                vc
                for vc, queue in enumerate(port.queues)
                if queue and queue[0][0] <= self.now and credits[vc] <= 0
            ]
        else:
            # Flat class x VC queues: a class is credit-blocked when
            # both its own reservation and the shared borrow pool for
            # that VC are empty (the aggregate counter may still be
            # positive on behalf of *other* classes' reservations).
            num_vcs = self._num_vcs
            cls_credits = port.cls_credits
            shared = port.shared_credits
            blocked = [
                flat
                for flat, queue in enumerate(port.queues)
                if queue and queue[0][0] <= self.now
                and cls_credits[flat] <= 0 and shared[flat % num_vcs] <= 0
            ]
        if not blocked:
            port.stall_failures = 0
            return
        if port.total_reserve_debt() >= self.config.reserve_slots:
            port.stall_failures += 1
            threshold = self.config.emergency_stall_threshold
            if not threshold or port.stall_failures < threshold:
                # All reserve slots loaned out already; re-arm and wait.
                port.stall_armed = True
                self._push(
                    self.now + self.config.deadlock_timeout_cycles,
                    _STALL, port, None,
                )
                return
            self.stats.emergency_loans += 1
        else:
            port.stall_failures = 0
        oldest = min(blocked, key=lambda i: port.queues[i][0][0])
        if qos is None:
            oldest_vc = oldest
        else:
            # Loan straight into the blocked class's own pool and
            # attribute the debt to it, so the loan is repaid by that
            # class's next release (class-attributed debt; see
            # _release_credit).  Conservation holds: aggregate and the
            # class pool move together.
            oldest_vc = oldest % self._num_vcs
            port.cls_credits[oldest] += 1
            port.cls_debt[oldest] += 1
        credits[oldest_vc] += 1
        port.reserve_debt[oldest_vc] += 1
        self.stats.deadlock_recoveries += 1
        self._try_send(port)

    # -- main loop ---------------------------------------------------------------------

    def run(self, until: int | None = None) -> SimStats:
        """Process events up to *until* cycles (or until the queue empties).

        Events scheduled past *until* stay queued; call :meth:`drain`
        (or ``run`` again) to let in-flight traffic finish after the
        injection processes stop.  Exceeding ``max_events`` raises
        before the next event is taken, so it too stays queued.
        """
        cal = self._cal
        times = self._times
        heappop = heapq.heappop
        process_arrival = self._process_arrival
        try_send = self._try_send
        transmit = self._transmit
        max_events = self.max_events
        limit = math.inf if until is None else until
        processed = self._events_processed
        probes = self._probes
        # Installed probes count every event inline; ``on_event`` is
        # their per-event hook, bound only for a tracer or recorder.
        counts = on_event = None
        if probes is not None:
            counts = probes.event_counts
            on_event = probes.event_hook()
        # Hook slots and the class table change only between calls.
        dequeue_hook = self._hook_dequeue
        classless = self._qos is None
        num_vcs = self._num_vcs
        bands = self._qos_bands
        band_of = self._qos_band_of
        above = self._qos_above
        weights = self._qos_weights
        quantum = self._qos_quantum
        while times:
            time = times[0]
            if time > limit:
                break
            self.now = time
            queue = cal[time]
            popleft = queue.popleft
            # Same-cycle pushes append to (or insert into) this deque
            # while it drains; the cycle retires only once it is empty.
            while queue:
                if processed >= max_events:
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events "
                        "(livelock or runaway injection?)"
                    )
                seq, code, a, b = popleft()
                self._cur_seq = seq
                processed += 1
                # Kept current every event: schedule() callbacks may read it.
                self._events_processed = processed
                if counts is not None:
                    counts[code] += 1
                    if on_event is not None:
                        on_event(code, time)
                if code == _ARRIVE:
                    process_arrival(a, b)
                elif code == _WAKE:
                    a.wake_at = None
                    if a.count == 1 and a.channels == 1:
                        # Fused hop: one queued packet, a free wire and
                        # a credit make _try_send's arbitration trivial,
                        # so send it from here, effect for effect and
                        # seq for seq; any other case falls through.
                        fa = a.free_at[0]
                        if fa < time or (fa == time and a.free_seq[0] <= seq):
                            queues = a.queues
                            flat = 0
                            vq = queues[0]
                            while not vq:
                                flat += 1
                                vq = queues[flat]
                            ready, packet, from_link = vq[0]
                            if ready <= time:
                                credits = a.credits
                                if classless:
                                    if credits[flat] > 0:
                                        vq.popleft()
                                        a.count = 0
                                        a.rr = flat + 1 if flat + 1 < num_vcs else 0
                                        credits[flat] -= 1
                                        if dequeue_hook is not None:
                                            dequeue_hook(a, packet, ready, time)
                                        transmit(a, 0, packet, from_link)
                                        continue
                                else:
                                    cls, vc = divmod(flat, num_vcs)
                                    cls_credits = a.cls_credits
                                    shared = a.shared_credits
                                    if cls_credits[flat] > 0 or shared[vc] > 0:
                                        # _try_send's selection for a
                                        # lone packet: every class it
                                        # passes (higher bands, then its
                                        # own band's rotation up to the
                                        # class) drops its deficit.
                                        deficit = a.deficit
                                        for k in above[cls]:
                                            deficit[k] = 0
                                        band_idx = band_of[cls]
                                        members = bands[band_idx]
                                        band_pos = a.band_pos
                                        pos = band_pos[band_idx]
                                        k = members[pos]
                                        while k != cls:
                                            deficit[k] = 0
                                            pos += 1
                                            if pos == len(members):
                                                pos = 0
                                            k = members[pos]
                                        left = deficit[cls]
                                        if left <= 0:
                                            left += quantum * weights[cls]
                                        vq.popleft()
                                        a.count = 0
                                        a.cls_count[cls] = 0
                                        a.cls_rr[cls] = vc + 1 if vc + 1 < num_vcs else 0
                                        credits[vc] -= 1
                                        if cls_credits[flat] > 0:
                                            cls_credits[flat] -= 1
                                        else:
                                            shared[vc] -= 1
                                        left -= packet.size_flits
                                        deficit[cls] = left
                                        if left <= 0:
                                            # Quantum spent: rotate past.
                                            pos += 1
                                            if pos == len(members):
                                                pos = 0
                                        band_pos[band_idx] = pos
                                        if dequeue_hook is not None:
                                            dequeue_hook(a, packet, ready, time)
                                        transmit(a, 0, packet, from_link)
                                        continue
                    try_send(a)
                elif code == _CALL:
                    a(time)
                elif code == _LINK_FREE:
                    a.free_armed[b] = False
                    try_send(a)
                else:  # _STALL
                    self._recover_stall(a)
            del cal[time]
            heappop(times)
        if until is not None:
            self.now = max(self.now, until)
        return self.stats

    @property
    def pending_events(self) -> int:
        """Events still queued (0 = fully drained), in O(1).

        Every allocated sequence number is queued, processed, or an
        elided LINK_FREE reservation, so the count is their difference
        — no walk over the calendar's deques.
        """
        return self._seq - self._events_processed - self._link_events_elided

    @property
    def link_events_elided(self) -> int:
        """LINK_FREE events the simulator avoided scheduling.

        Every transmission reserves one; a retry that later
        materializes one of these events is subtracted back out, so
        the count is exactly the queue traffic saved.
        """
        return self._link_events_elided

    @property
    def logical_events(self) -> int:
        """Events processed plus link events elided.

        Counts one release per transmission whether or not its event
        was queued, so it measures simulated work independently of how
        many releases needed a retry.  Elision is counted at send time
        and processing at pop time, so mid-run it runs ahead by the
        links still in flight.
        """
        return self._events_processed + self._link_events_elided

    def drain(self, limit: int | None = None) -> SimStats:
        """Run until every queued event has been processed."""
        return self.run(until=limit)


def zero_load_latency(
    config: NetworkConfig, hops: int, size_flits: int = 1
) -> int:
    """Analytic zero-load latency of a *hops*-hop route (for tests).

    Each hop costs router pipeline + serialization + SerDes + wire.
    """
    per_hop = (
        config.router_cycles
        + size_flits
        + config.serdes_cycles
        + config.wire_cycles
    )
    return hops * per_hop
