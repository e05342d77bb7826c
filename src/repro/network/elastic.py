"""Live (online) elastic reconfiguration inside the event loop.

The offline :class:`~repro.core.reconfig.ReconfigurationManager` flips a
network between scales instantaneously, between simulations.  This
module performs the paper's §III-C dynamic reconfiguration *while
packets keep flowing*, as simulator events, so the cost of elasticity
under real traffic is measurable (the Figure 9b EDP story).

One power-down operation runs as a timed pipeline:

1. **Drain** — victims are marked unstable; churn-aware traffic sources
   stop targeting them and the operation waits (polling) until each
   victim is quiescent: nothing destined to it, nothing queued on its
   ports, nothing mid-wire around it.
2. **Block** — the victims join the routing's blocked set, and every
   window that lists a victim is recomputed without it; packets route
   around the blocked links through the greediest protocol's usual
   adaptive/fallback machinery.  A packet that genuinely cannot make
   progress during this window (the ring patch is not switched in yet)
   is *parked* at its router — it keeps holding its inbound-link
   credit, so backpressure stays exact — and re-enters the network when
   the window closes.
3. **Switch** — after the sleep latency from
   :mod:`repro.energy.power_gating` elapses, the physical
   reconfiguration happens (links off, shortcut wires in, tables
   rebuilt).  Packets still queued on a link that just disappeared are
   re-routed from their current router with fresh routing state.
4. **Revalidate + unblock** — routers whose tables were rewritten hold
   arriving packets for the short revalidation window, then every
   parked packet re-enters and the network is fully open again.

Power-on is the mirror image: the wake latency is paid before the
switch, and the revalidation window doubles as the block window (the
new node is invisible to routing until its neighbors' tables are
rebuilt, so there is nothing to block beforehand).

Operations are serialized: a requested reconfiguration waits until the
one in progress completes.  Every operation leaves a
:class:`LiveReconfigEvent` record with its full timeline and parking
statistics, which :func:`disturbance_metrics` turns into the
latency-disturbance and recovery-time numbers the churn benchmarks
report.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.core.reconfig import ReconfigEvent, ReconfigurationManager
from repro.energy.power_gating import PowerManager
from repro.network.packet import Packet
from repro.network.simulator import NetworkSimulator
from repro.network.stats import LatencyBook
from repro.ops import VICTIM_SPACING, node_list_error

__all__ = [
    "LiveReconfigEvent",
    "LiveReconfigurator",
    "delivery_book",
    "disturbance_metrics",
    "window_series",
]

#: Cycles a router needs to rewrite + revalidate its table entries
#: (step 3 of the paper's sequence is bit flips — a handful of cycles).
REVALIDATE_CYCLES = 8
#: Poll period while waiting for victims to quiesce.
DRAIN_POLL_CYCLES = 16

#: :func:`disturbance_metrics`: windows averaged for the pre-event
#: baseline, cycles past the event's clear searched for the peak and the
#: recovery, and the recovered-latency bound as a multiple of baseline.
BASELINE_WINDOWS = 5
HORIZON_CYCLES = 10_000
RECOVERY_TOLERANCE = 1.25


@dataclass
class LiveReconfigEvent:
    """Timeline and cost record of one online reconfiguration."""

    kind: str  # "gate_off", "gate_on", "unmount", "mount"
    nodes: tuple[int, ...]
    t_request: int = 0
    t_blocked: int = 0
    t_switched: int = 0
    t_unblocked: int = 0
    parked_packets: int = 0
    park_cycle_sum: int = 0
    rerouted_packets: int = 0
    offline_events: list[ReconfigEvent] = field(default_factory=list)
    #: Data-migration cost record (a MigrationRecord) when the
    #: reconfigurator runs with a migration engine; None otherwise.
    migration: Any = None

    @property
    def drain_cycles(self) -> int:
        """Cycles spent waiting for the victims to quiesce."""
        return self.t_blocked - self.t_request

    @property
    def block_cycles(self) -> int:
        """Length of the blocked window (sleep/wake + revalidation)."""
        return self.t_unblocked - self.t_blocked

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe summary (experiment payloads, benchmark output)."""
        return {
            "kind": self.kind,
            "nodes": list(self.nodes),
            "t_request": self.t_request,
            "t_blocked": self.t_blocked,
            "t_switched": self.t_switched,
            "t_unblocked": self.t_unblocked,
            "drain_cycles": self.drain_cycles,
            "block_cycles": self.block_cycles,
            "parked_packets": self.parked_packets,
            "park_cycle_sum": self.park_cycle_sum,
            "rerouted_packets": self.rerouted_packets,
            "migration": (
                self.migration.to_dict() if self.migration is not None else None
            ),
        }


class LiveReconfigurator:
    """Schedules and executes reconfigurations as simulator events.

    Parameters
    ----------
    sim:
        The running :class:`NetworkSimulator`.  The reconfigurator
        installs itself as the simulator's arrival hook while a
        reconfiguration window is open.
    manager:
        The offline :class:`ReconfigurationManager` that owns the
        topology/table mechanics (this class adds the online timing).
    policy:
        The simulator's routing policy: arrivals at a probed router
        try its ``forward`` while the window is open, and its
        ``on_reconfigure`` is called after every switch.
    power:
        Optional :class:`PowerManager` supplying sleep/wake latencies;
        each completed operation is noted on it, so its
        reconfiguration granularity tells a power controller when the
        next one may start.  Without it the module defaults from
        :mod:`repro.energy.power_gating` apply.
    migrator:
        Optional :class:`~repro.memory.migration.MigrationEngine`.
        When present, the data on a victim no longer teleports: a
        power-down becomes *migrate-out -> drain -> block -> switch ->
        unblock* (the victims' pages stream to the survivors as real
        traffic before the drain wait begins — data traffic to a victim
        can only cease once its pages have left, so evacuation must
        precede quiescence), and a power-up triggers a wake-side
        migrate-in right after unblock, repatriating pages as
        background traffic under resumed foreground load.
    """

    def __init__(
        self,
        sim: NetworkSimulator,
        manager: ReconfigurationManager,
        policy,
        power: PowerManager | None = None,
        drain_timeout_cycles: int = 500_000,
        migrator=None,
    ) -> None:
        self.sim = sim
        self.manager = manager
        self.routing = manager.routing
        self.policy = policy
        self.power = power
        config = sim.config
        sleep_ns = power.sleep_ns if power is not None else None
        wake_ns = power.wake_ns if power is not None else None
        if sleep_ns is None:
            from repro.energy.power_gating import SLEEP_LATENCY_NS

            sleep_ns = SLEEP_LATENCY_NS
        if wake_ns is None:
            from repro.energy.power_gating import WAKE_LATENCY_NS

            wake_ns = WAKE_LATENCY_NS
        self.sleep_cycles = config.cycles_from_ns(sleep_ns)
        self.wake_cycles = config.cycles_from_ns(wake_ns)
        self.drain_timeout_cycles = drain_timeout_cycles
        self.migrator = migrator

        self.events: list[LiveReconfigEvent] = []
        #: ``(kind, nodes, reason)`` of each queued operation that no
        #: longer applied when its turn came (e.g. a second gate-off of
        #: a node an earlier operation already gated); it ran no step.
        self.refused: list[tuple[str, tuple[int, ...], str]] = []
        #: Callbacks run (with the completed LiveReconfigEvent) at the
        #: end of every operation — e.g. fault recovery chaining a page
        #: reconstruction after an emergency unmount.
        self.on_complete: list = []
        self._queue: deque[tuple[str, tuple[int, ...]]] = deque()
        self._busy = False
        self._unstable: set[int] = set()
        self._blocked_dsts: set[int] = set()
        self._probe_routers: set[int] = set()
        self._hold_routers: set[int] = set()
        # from_link entries are the simulator's opaque inbound-link
        # tokens (always None for parked packets — their credit was
        # released at park time).
        self._parked: list[tuple[int, int, Packet, Any, bool]] = []
        self._window_active = False

    # -- public API --------------------------------------------------------

    def usable(self, node: int) -> bool:
        """Whether traffic may currently target (or originate at) *node*.

        Churn-aware traffic sources consult this so packets stop
        flowing to a victim before its links power down, and only start
        flowing to a woken node once its neighborhood revalidated.
        """
        return self.manager.topology.is_active(node) and node not in self._unstable

    def select_victims(self, fraction: float | None = None, count: int | None = None) -> list[int]:
        """Cleanly-gateable victims ``VICTIM_SPACING`` ring slots apart."""
        if count is None:
            if fraction is None:
                raise ValueError("give either fraction or count")
            count = int(len(self.manager.topology.active_nodes) * fraction)
        return self.manager.gate_candidates(count, min_spacing=VICTIM_SPACING)

    def gate_off(self, nodes, at: int | None = None) -> None:
        """Schedule an online power-down of *nodes* (one batch)."""
        self._schedule_op("gate_off", nodes, at)

    def gate_on(self, nodes, at: int | None = None) -> None:
        """Schedule an online power-up of previously gated *nodes*."""
        self._schedule_op("gate_on", nodes, at)

    def unmount(self, nodes, at: int | None = None) -> None:
        """Schedule an online unmount (no sleep latency) of *nodes*."""
        self._schedule_op("unmount", nodes, at)

    def mount(self, nodes, at: int | None = None) -> None:
        """Schedule an online mount (no wake latency) of *nodes*."""
        self._schedule_op("mount", nodes, at)

    @property
    def parked_now(self) -> int:
        """Packets currently parked (0 outside reconfiguration windows)."""
        return len(self._parked)

    @property
    def pending_operations(self) -> int:
        """Operations queued or in progress."""
        return len(self._queue) + int(self._busy)

    # -- operation pipeline ------------------------------------------------

    def _schedule_op(self, kind: str, nodes, at: int | None) -> None:
        nodes = tuple(int(n) for n in nodes)
        if not nodes:
            return
        # A bad batch would otherwise fail only at the switch, inside a
        # simulator event, with the operation's window already open.
        error = node_list_error(nodes, self.manager.topology.num_nodes)
        if error is not None:
            raise ValueError(f"{kind} {nodes}: {error}")

        def enqueue(now: int) -> None:
            self._queue.append((kind, nodes))
            self._start_next(now)

        self.sim.schedule(self.sim.now if at is None else at, enqueue)

    def _start_next(self, now: int) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        kind, nodes = self._queue.popleft()
        try:
            # The call-time check cannot see the operations queued
            # ahead of this one; check against the state they left.
            self.manager.check_batch(nodes, kind in ("gate_on", "mount"), kind)
        except ValueError as exc:
            self.refused.append((kind, nodes, str(exc)))
            self._busy = False
            self._start_next(now)
            return
        event = LiveReconfigEvent(kind=kind, nodes=nodes, t_request=now)
        self._unstable.update(nodes)
        if kind in ("gate_off", "unmount"):
            if self.migrator is not None:
                # Evacuate the victims' data first: foreground requests
                # keep flowing to a victim while its pages are still
                # resident there, so the quiescence wait below can only
                # succeed once migration has emptied it.
                event.migration = self.migrator.migrate_out(
                    nodes,
                    on_done=lambda t: self._await_drain(t, kind, nodes, event, since=t),
                )
            else:
                self._await_drain(now, kind, nodes, event)
        else:
            delay = self.wake_cycles if kind == "gate_on" else 0
            self.sim.schedule(now + delay, lambda t: self._switch_on(t, kind, nodes, event))

    def _await_drain(
        self,
        now: int,
        kind: str,
        nodes: tuple[int, ...],
        event: LiveReconfigEvent,
        since: int | None = None,
    ) -> None:
        """Wait until no packet *destined* to a victim remains in flight.

        Transit traffic may still stream through the victims at this
        point — the block phase cuts that off, and the switch phase
        waits for the remaining transit to clear.  ``since`` anchors the
        timeout clock (migration may legitimately spend many cycles
        before the drain wait even starts).
        """
        if since is None:
            since = event.t_request
        if all(self.sim.inflight_to(n) == 0 for n in nodes):
            self._block_phase(now, kind, nodes, event)
            return
        if now - since > self.drain_timeout_cycles:
            raise RuntimeError(
                f"{kind} of {nodes} could not drain within "
                f"{self.drain_timeout_cycles} cycles — are traffic sources "
                "churn-aware (checking usable())?"
            )
        self.sim.schedule(
            now + DRAIN_POLL_CYCLES,
            lambda t: self._await_drain(t, kind, nodes, event, since),
        )

    def _block_phase(
        self, now: int, kind: str, nodes: tuple[int, ...], event: LiveReconfigEvent
    ) -> None:
        """Step 1 (online): block the victims; open the parking window.

        The routers whose windows list a victim are probed on arrival
        and are the only windows the block changes.
        """
        event.t_blocked = now
        routing = self.routing
        self._probe_routers = {
            router
            for victim in nodes
            for router in routing.routers_listing((victim,))
            if router != victim
        }
        routing.blocked.update(nodes)
        routing.rebuild(sorted(self._probe_routers))
        self._blocked_dsts.update(nodes)
        self._set_window(True)
        delay = self.sleep_cycles if kind == "gate_off" else 0
        self.sim.schedule(now + delay, lambda t: self._switch_off(t, kind, nodes, event))

    def _switch_off(
        self, now: int, kind: str, nodes: tuple[int, ...], event: LiveReconfigEvent
    ) -> None:
        """Step 2+3 (online): links off, shortcuts in, tables rebuilt.

        Blocked entries stopped new transit into the victims when the
        window opened, so their queues drain monotonically during the
        sleep latency; if stragglers remain (heavy load), the physical
        switch is deferred until the victims are completely quiescent.
        """
        if not all(self.sim.node_quiescent(n) for n in nodes):
            if now - event.t_blocked > self.drain_timeout_cycles:
                raise RuntimeError(
                    f"{kind} of {nodes}: victims still carried transit "
                    f"traffic {self.drain_timeout_cycles} cycles after "
                    "blocking — network saturated beyond recovery"
                )
            self.sim.schedule(
                now + DRAIN_POLL_CYCLES,
                lambda t: self._switch_off(t, kind, nodes, event),
            )
            return
        switch = self.manager.power_gate if kind == "gate_off" else self.manager.unmount
        event.offline_events.extend(switch(*nodes))
        event.t_switched = now
        self._after_switch(now, event)

    def _switch_on(
        self, now: int, kind: str, nodes: tuple[int, ...], event: LiveReconfigEvent
    ) -> None:
        """Power-on path: wake latency already paid; switch + revalidate."""
        event.t_blocked = now
        self._set_window(True)
        switch = self.manager.power_on if kind == "gate_on" else self.manager.mount
        event.offline_events.extend(switch(*reversed(nodes)))
        event.t_switched = now
        self._after_switch(now, event)

    def _after_switch(self, now: int, event: LiveReconfigEvent) -> None:
        event.rerouted_packets = self._reroute_disabled(event.offline_events)
        self.policy.on_reconfigure()
        active = self.routing.nbr_index
        self._hold_routers = {
            router
            for offline in event.offline_events
            for router in offline.tables_updated
            if router in active
        }
        self.sim.schedule(now + REVALIDATE_CYCLES, lambda t: self._finish(t, event))

    def _reroute_disabled(self, offline_events: list[ReconfigEvent]) -> int:
        """Step 2 cleanup: re-route packets queued on disappeared links.

        Queued packets have not consumed the dead link's credit, so
        pulling them back to their router and re-running the (fresh)
        forwarding decision is exact.  Packets already on the wire
        finish their arrival normally — the switch waits out in-flight
        flits.
        """
        pairs: set[tuple[int, int]] = set()
        for offline in offline_events:
            for u, v in offline.links_disabled:
                pairs.add((u, v))
                pairs.add((v, u))
            for u, v in offline.shortcuts_deactivated:
                pairs.add((u, v))
                pairs.add((v, u))
        rerouted = 0
        for u, v in sorted(pairs):
            for packet, from_link in self.sim.take_queued(u, v):
                packet.reset_route()
                self.sim.rearrive(u, packet, from_link)
                rerouted += 1
        return rerouted

    def _finish(self, now: int, event: LiveReconfigEvent) -> None:
        """Step 4 (online): unblock, release parked traffic, close out."""
        routing = self.routing
        if routing.blocked:
            routing.blocked.difference_update(event.nodes)
            routing.rebuild(routing.routers_listing(event.nodes))
        self._probe_routers.clear()
        self._hold_routers.clear()
        self._blocked_dsts.clear()
        self._set_window(False)
        self._unstable.difference_update(event.nodes)
        event.t_unblocked = now
        event.parked_packets = len(self._parked)
        for t_park, node, packet, from_link, first_hop in self._parked:
            event.park_cycle_sum += now - t_park
            packet.reset_route()
            self.sim.rearrive(node, packet, from_link, first_hop)
        self._parked.clear()
        if self.power is not None:
            self.power.note_reconfiguration(now * self.sim.config.cycle_ns)
        if self.migrator is not None and event.kind in ("gate_on", "mount"):
            # Wake-side migrate-in: the node is reachable again, so its
            # homed pages stream back as background traffic competing
            # with the resumed foreground load (no pipeline stage waits
            # on this — repatriation is pure background work).
            event.migration = self.migrator.migrate_in(event.nodes)
        self.events.append(event)
        for callback in self.on_complete:
            callback(event)
        self._busy = False
        self._start_next(now)

    # -- the arrival hook --------------------------------------------------

    def _set_window(self, active: bool) -> None:
        """Open or close the parking window.

        The arrival hook is bound only while the window is open, so
        arrivals outside a reconfiguration cost no call.
        """
        self._window_active = active
        self.sim.set_arrival_hook(self._on_arrival if active else None)

    def _on_arrival(
        self,
        node: int,
        packet: Packet,
        from_link: Any,
        first_hop: bool,
    ) -> bool:
        if (
            node in self._hold_routers
            or packet.dst in self._blocked_dsts
            or (node in self._probe_routers and self._forward_would_fail(node, packet, first_hop))
        ):
            # The hold buffer absorbs the packet, so its inbound-link
            # credit returns upstream immediately — parking must not
            # drain credits out of circulation (a full blocked window
            # of held credits is enough to wedge saturated networks).
            if from_link is not None:
                self.sim.release_inbound(from_link, packet.vc, packet.tclass)
            self._parked.append((self.sim.now, node, packet, None, first_hop))
            return True
        return False

    def _forward_would_fail(self, node: int, packet: Packet, first_hop: bool) -> bool:
        """Probe whether forwarding is possible with blocked entries.

        The forwarding decision is re-run for real afterwards, so the
        packet's routing state is snapshotted and restored — the probe
        is observationally free.
        """
        saved = (packet.commit, packet.fallback_md, packet.fallback_hops)
        try:
            self.policy.forward(node, packet, self.sim.port_load, first_hop)
            return False
        except (RuntimeError, KeyError, IndexError):
            return True
        finally:
            packet.commit, packet.fallback_md, packet.fallback_hops = saved


def delivery_book(sim: NetworkSimulator, window_cycles: int) -> LatencyBook:
    """A book of measured delivered-packet latency, keyed by delivery
    window ``now // window_cycles`` and fed from *sim*'s delivery hook.

    The churn and fault benchmarks read it to quantify how much an
    event disturbs latency and how long the network takes to recover
    (:func:`disturbance_metrics`).
    """
    if window_cycles <= 0:
        raise ValueError(f"window_cycles must be positive, got {window_cycles}")
    book = LatencyBook()

    def record(packet: Packet, now: int) -> None:
        if packet.measured:
            book.add(now // window_cycles, packet.latency)

    sim.on_delivery(record)
    return book


def window_series(book: LatencyBook, window_cycles: int) -> list[dict[str, float]]:
    """Per-window delivery count and mean latency, time-ordered."""
    return [
        {"window_start": key * window_cycles, "count": sketch.count, "mean_latency": sketch.mean}
        for key, sketch in sorted(book.sketches.items())
    ]


def disturbance_metrics(
    book: LatencyBook,
    window_cycles: int,
    start: int,
    clear: int,
) -> dict[str, Any]:
    """Latency disturbance and recovery time around one event window.

    The event runs from *start* (a reconfiguration request, a fault) to
    *clear* (unblock, repair).  ``baseline`` is the mean latency over
    the :data:`BASELINE_WINDOWS` windows just before *start*; ``peak``
    the worst window mean between *start* and :data:`HORIZON_CYCLES`
    past *clear*; ``recovery_cycles`` measures from *clear* to the end
    of the first non-empty window whose mean is back within
    :data:`RECOVERY_TOLERANCE` x baseline (``recovered`` is False when
    that never happens inside the horizon).
    """
    w = window_cycles
    # The windows lying wholly inside [start - BASELINE_WINDOWS * w, start).
    baseline = book.merged(-((BASELINE_WINDOWS * w - start) // w), start // w).mean
    peak = 0.0
    recovery_cycles: int | None = None
    recovered = False
    saw_post_window = False
    horizon_end = clear + HORIZON_CYCLES
    for entry in window_series(book, w):
        window = entry["window_start"]
        if window + w <= start or window >= horizon_end:
            continue
        peak = max(peak, entry["mean_latency"])
        if window >= clear:
            saw_post_window = True
        if (
            not recovered
            and baseline > 0.0
            and window >= clear
            and entry["mean_latency"] <= RECOVERY_TOLERANCE * baseline
        ):
            recovered = True
            recovery_cycles = window + w - clear
    if not saw_post_window:
        # Nothing was delivered after the window closed (e.g. the event
        # completed during the drain phase): there was no disturbed
        # traffic left to recover, so the event counts as recovered.
        recovered = True
        recovery_cycles = 0
    return {
        "baseline_latency": baseline,
        "peak_latency": peak,
        "peak_ratio": (peak / baseline) if baseline > 0 else 0.0,
        "recovered": recovered,
        "recovery_cycles": recovery_cycles,
    }
