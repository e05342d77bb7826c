"""Simulator-level fault semantics: loss, parking, retransmission.

The :class:`FaultLayer` is the one object the simulator consults about
failures (installed via
:meth:`~repro.network.simulator.NetworkSimulator.install_fault_layer`).
It owns the *physical* consequences of unplanned faults — which packets
die, which wait, who may retransmit — while the policy questions (when
is a fault noticed, how is routing repaired, how is data reconstructed)
live in :mod:`repro.faults.detector` and :mod:`repro.faults.recovery`.

Loss model
----------

A packet can be lost four ways, all counted in ``stats.dropped`` so
``sent == delivered + dropped`` is a checkable conservation law at the
end of every drained run:

* **mid-wire** — it was serializing across a link the instant the link
  failed (the pids doomed by ``fail_link`` drop at their would-be
  arrival);
* **in-crash** — it was buffered inside the router that died (swept out
  of the crashed node's output queues at crash time);
* **unreachable** — it is destined to a node the detector has ruled
  dead (dropped at its next arrival anywhere; before detection such
  packets pile into the dead node's neighbors' buffers, which is the
  realistic pre-detection damage);
* **stranded** — greedy routing fell back to the space-0 ring walk at
  a router where failed links and a crash excision left the ring with
  no clockwise progress (reason ``ring_broken``, listed in ``drops``
  once it first happens).

Retransmission
--------------

Every loss is offered to the per-source retry queue: if the original
source is still alive and the destination has not been ruled dead, a
clone is re-sent ``retransmit_timeout`` cycles later, up to
``max_retries`` attempts per original packet.  Clones are unmeasured
(the clean-latency statistics stay honest); end-to-end completion
latency including retries is recoverable through :meth:`take_meta`,
which maps a delivered clone back to its original injection time.
Every attempt is a fresh ``sent`` and ends ``delivered`` or
``dropped``, so the conservation law needs no special cases.

Hung nodes
----------

Arrivals at a hung router are *parked holding their inbound-link
credit* — the packet sits in the input buffer of a router whose
pipeline has stalled, so upstream credits stay consumed and the
backpressure tree grows exactly as it would in hardware.  (Contrast
with live-reconfiguration parking, which releases credits because its
windows are short and bounded.)  On resume the parked packets re-enter
in arrival order.
"""

from __future__ import annotations

from repro.network.packet import Packet
from repro.network.simulator import NetworkSimulator

__all__ = ["FaultLayer"]


class FaultLayer:
    """Physical fault state attached to one :class:`NetworkSimulator`.

    Parameters
    ----------
    sim:
        The simulator to attach to (the layer installs itself).
    retransmit_timeout:
        Cycles a source waits after a loss before re-sending.
    max_retries:
        Retransmission attempts per original packet before the loss is
        abandoned for good.
    """

    def __init__(
        self,
        sim: NetworkSimulator,
        retransmit_timeout: int = 64,
        max_retries: int = 8,
        retransmit_class: int | None = None,
    ) -> None:
        if retransmit_timeout < 1:
            raise ValueError(
                f"retransmit_timeout must be >= 1, got {retransmit_timeout}"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.sim = sim
        self.retransmit_timeout = retransmit_timeout
        self.max_retries = max_retries
        #: Traffic class for retransmitted clones; ``None`` inherits the
        #: original packet's class, an explicit id (e.g. the background
        #: class) rate-shapes retry storms below foreground traffic.
        self.retransmit_class = retransmit_class
        #: Routers that physically died (known instantly to *themselves*:
        #: a crashed node's own injector stops with it).
        self.crashed: set[int] = set()
        #: Routers whose pipeline is stalled (arrivals park).
        self.hung: set[int] = set()
        #: Nodes the detector has ruled dead — traffic toward them drops.
        self.dead: set[int] = set()
        #: Nodes the detector currently advises sources to avoid
        #: (hung-but-expected-back; dead nodes are listed in ``dead``).
        self.suspect: set[int] = set()
        #: Hard-failed wires, canonical (min, max) keys.  Freezing is a
        #: shared mechanism (hangs freeze too), so restores consult
        #: this registry: resuming a hung node must not thaw a wire a
        #: link fault killed, and a flap restore must not thaw a wire
        #: whose endpoint is hung or dead.
        self.failed_wires: set[tuple[int, int]] = set()
        #: Parked arrivals per hung node: (park_time, packet, from_link,
        #: first_hop) — from_link credits stay held (see module doc).
        self._parked: dict[int, list[tuple]] = {}
        #: Retry bookkeeping: clone pid -> (first_inject, attempts).
        self._retry_meta: dict[int, tuple[int, int]] = {}
        self.drops: dict[str, int] = {
            "link": 0, "crash": 0, "unreachable": 0, "flush": 0,
        }
        self.retransmits = 0
        self.abandoned_unreachable = 0
        self.abandoned_retries = 0
        self.parked_packets = 0
        self.park_cycle_sum = 0
        self.swept_packets = 0
        sim.install_fault_layer(self)

    # -- availability (what traffic sources may target) --------------------

    def usable_source(self, node: int) -> bool:
        """Whether *node*'s own processor can inject right now.

        A node knows its own crash/hang instantly — its cores died or
        stalled with its router — so this is physical state, not
        detected state.  A node *ruled* dead (e.g. stranded by a
        partition) also stops: it has detected that nothing it sends
        can leave.
        """
        return (
            node not in self.crashed
            and node not in self.hung
            and node not in self.dead
        )

    def usable_dest(self, node: int) -> bool:
        """Whether sources should currently address traffic to *node*.

        Remote failures are only known once the detector announces
        them, so before detection sources keep sending into the failure
        (and pay for it) — the fidelity point of the whole subsystem.
        """
        return node not in self.dead and node not in self.suspect

    # -- the simulator's arrival intercept ---------------------------------

    def intercept(self, node: int, packet: Packet, from_link, first_hop: bool) -> bool:
        """Rule on one arrival; True means the layer consumed it."""
        if from_link is not None:
            doomed = from_link.drop_pids
            if doomed and packet.pid in doomed:
                doomed.discard(packet.pid)
                self._drop(packet, from_link, "link")
                return True
        if packet.dst in self.dead or node in self.dead:
            # Destined to a dead node, or currently *at* one — the
            # latter happens when a partition strands a live router
            # with transit traffic inside the minority island.
            self._drop(packet, from_link, "unreachable")
            return True
        if node in self.hung:
            # Input-buffered park: the credit travels with the packet.
            self._parked.setdefault(node, []).append(
                (self.sim.now, packet, from_link, first_hop)
            )
            self.parked_packets += 1
            return True
        return False

    # -- loss + retransmission ---------------------------------------------

    def drop_stranded(self, packet: Packet, from_link) -> None:
        """Lose an arrival the ring walk cannot route onward."""
        self.drops.setdefault("ring_broken", 0)
        self._drop(packet, from_link, "ring_broken")

    def _drop(self, packet: Packet, from_link, reason: str) -> None:
        self.sim.drop_packet(packet, from_link)
        self.drops[reason] += 1
        meta = self._retry_meta.pop(packet.pid, None)
        first, attempts = meta if meta is not None else (packet.inject_time, 0)
        if packet.dst in self.dead:
            self.abandoned_unreachable += 1
            return
        if attempts >= self.max_retries:
            self.abandoned_retries += 1
            return
        self._schedule_retransmit(packet, first, attempts)

    def _schedule_retransmit(
        self, packet: Packet, first: int, attempts: int
    ) -> None:
        src, dst = packet.src, packet.dst

        def resend(now: int, packet=packet, first=first, attempts=attempts) -> None:
            if dst in self.dead:
                self.abandoned_unreachable += 1
                return
            if src in self.crashed or src in self.dead:
                # The retry queue died (or was stranded) with its node.
                self.abandoned_unreachable += 1
                return
            clone = Packet(
                src=src,
                dst=dst,
                size_flits=packet.size_flits,
                payload_bytes=packet.payload_bytes,
                kind=packet.kind,
                tclass=(
                    packet.tclass
                    if self.retransmit_class is None
                    else self.retransmit_class
                ),
                measured=False,
                context=packet.context,
            )
            self.sim.send(clone, now)
            self._retry_meta[clone.pid] = (first, attempts + 1)
            self.retransmits += 1

        self.sim.schedule(self.sim.now + self.retransmit_timeout, resend)

    def take_meta(self, pid: int) -> tuple[int, int] | None:
        """Pop the (first_inject, attempts) record of a delivered clone."""
        return self._retry_meta.pop(pid, None)

    # -- physical fault effects --------------------------------------------

    def fail_link_pair(self, u: int, v: int) -> int:
        """Hard-fail the (bidirectional) wire between *u* and *v*.

        Both directed links freeze and their mid-wire packets are
        doomed; queued packets stay buffered at their upstream routers
        until the detector sweeps them.  Returns the mid-wire count.
        """
        self.failed_wires.add((min(u, v), max(u, v)))
        return self.sim.fail_links(((u, v), (v, u)))

    def _restore_directed(self, u: int, v: int) -> None:
        """Thaw link ``u -> v`` unless some other fault still owns it:
        the wire itself is hard-failed, the transmitting router is
        hung, or either endpoint is physically dead."""
        if (min(u, v), max(u, v)) in self.failed_wires:
            return
        if u in self.hung or u in self.crashed or v in self.crashed:
            return
        self.sim.restore_link(u, v)

    def restore_link_pair(self, u: int, v: int) -> None:
        """Bring a flapped wire back up (both directions)."""
        self.failed_wires.discard((min(u, v), max(u, v)))
        self._restore_directed(u, v)
        self._restore_directed(v, u)

    def crash_node(self, node: int, neighbors) -> tuple[int, int]:
        """Kill *node* without warning.

        Every incident link fails (mid-wire packets doomed) and the
        packets buffered inside the crashed router — its output queues
        — are lost on the spot.  Returns ``(in_router, mid_wire)`` loss
        counts.  Routing repair and data recovery are the detector's
        and orchestrator's business, *after* the detection latency.
        """
        self.crashed.add(node)
        sim = self.sim
        neighbors = list(neighbors)
        for w in neighbors:
            self.failed_wires.add((min(node, w), max(node, w)))
        mid_wire = sim.fail_links(
            [(node, w) for w in neighbors] + [(w, node) for w in neighbors]
        )
        in_router = 0
        for w in neighbors:
            for packet, from_link in sim.take_queued(node, w):
                self._drop(packet, from_link, "crash")
                in_router += 1
        return in_router, mid_wire

    def hang_node(self, node: int, neighbors) -> None:
        """Stall *node*'s router pipeline (no loss, growing backlog)."""
        self.hung.add(node)
        for w in neighbors:
            self.sim.freeze_link(node, w)

    def resume_node(self, node: int, neighbors) -> int:
        """Un-hang *node*: thaw its links, re-enter parked arrivals.

        Only the links the hang froze come back — a wire that a link
        fault killed (or whose far end died) while the node was hung
        stays down.
        """
        self.hung.discard(node)
        self.suspect.discard(node)
        for w in neighbors:
            self._restore_directed(node, w)
        parked = self._parked.pop(node, [])
        now = self.sim.now
        for t_park, packet, from_link, first_hop in parked:
            self.park_cycle_sum += now - t_park
            packet.reset_route()
            self.sim.rearrive(node, packet, from_link, first_hop)
        return len(parked)

    def mark_dead(self, node: int) -> None:
        """Detector verdict: *node* is gone — stop traffic toward it."""
        self.dead.add(node)
        self.suspect.discard(node)

    def sweep_link(self, u: int, v: int) -> tuple[int, int]:
        """Pull queued packets off directed link ``u -> v`` and re-route.

        Transit packets re-enter at *u* with fresh routing state (the
        caller has already repaired the tables/policy); packets destined
        to a dead node are dropped here.  Returns
        ``(rerouted, dropped)``.
        """
        rerouted = dropped = 0
        for packet, from_link in self.sim.take_queued(u, v):
            if packet.dst in self.dead:
                self._drop(packet, from_link, "unreachable")
                dropped += 1
            else:
                packet.reset_route()
                self.sim.rearrive(u, packet, from_link)
                rerouted += 1
        self.swept_packets += rerouted + dropped
        return rerouted, dropped

    def flush_stuck(self) -> int:
        """End-of-run safety valve: drop anything still wedged on dead
        infrastructure (frozen-port queues, unresumed parks).

        A correctly repaired run flushes nothing; the count is surfaced
        in payloads so a nonzero value is visible, and conservation
        (``sent == delivered + dropped``) holds either way.
        """
        flushed = 0
        sim = self.sim
        for port in list(sim._ports.values()):
            if port.saved_channels is None:
                continue
            for packet, from_link in sim.take_queued(port.u, port.v):
                self.sim.drop_packet(packet, from_link)
                self.drops["flush"] += 1
                flushed += 1
        for node, parked in list(self._parked.items()):
            for _t, packet, from_link, _fh in parked:
                self.sim.drop_packet(packet, from_link)
                self.drops["flush"] += 1
                flushed += 1
            del self._parked[node]
        return flushed

    # -- accounting ---------------------------------------------------------

    @property
    def abandoned(self) -> int:
        """Losses the retry queue gave up on (truly lost traffic)."""
        return self.abandoned_unreachable + self.abandoned_retries

    def counters(self) -> dict[str, int]:
        """Flat JSON-safe counter snapshot for payloads."""
        return {
            "dropped_link": self.drops["link"],
            "dropped_crash": self.drops["crash"],
            "dropped_unreachable": self.drops["unreachable"],
            "dropped_flush": self.drops["flush"],
            "retransmits": self.retransmits,
            "abandoned_unreachable": self.abandoned_unreachable,
            "abandoned_retries": self.abandoned_retries,
            "fault_parked": self.parked_packets,
            "fault_park_cycle_sum": self.park_cycle_sum,
            "swept_packets": self.swept_packets,
        }
