"""Timeout-based fault detection and emergency routing repair.

Hardware detects an unresponsive link or node through credit/heartbeat
timeouts, so knowledge of a fault always lags the fault itself.  The
:class:`FaultDetector` models exactly that lag: the injector notifies
it the instant a fault *happens*, and the detector acts a configurable
``detection_timeout`` later.  Everything that goes wrong inside the
window — packets serialized onto a dead wire, traffic piling into a
dead node's neighborhood, sources still targeting a crashed node — is
the measured cost of detection latency, the knob the ``repro faults``
sweep turns.

On detection the detector performs the *emergency reroute*: the
fault's routing state is repaired through whichever mechanism the
topology owns, and the packets left queued on failed links are swept
back to their routers to be re-forwarded (or dropped, if their
destination died with the fault):

* **String Figure** (:class:`TableRepair`) — the failed wire joins the
  routing's failed set and only the windows that list its endpoints
  are recomputed, which bumps the routing-generation counter and so
  drops the routing's decision columns and the policy's candidate
  memo; this is the paper's local-bit-flip repair, no global
  recomputation.  Node crashes escalate to the
  :class:`~repro.faults.recovery.RecoveryOrchestrator`, which runs the
  reconfiguration pipeline to formally excise the node (ring patched,
  tables rebuilt) and reconstruct its data.
* **Baselines** (:class:`GraphRepair`) — mesh and Jellyfish have no
  local repair story: the interconnect graph is edited and a fresh
  minimal-routing policy is computed from scratch (the global-routing
  cost String Figure's design avoids).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.network.simulator import NetworkSimulator
from repro.network.stats import QuantileSketch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultRecord
    from repro.faults.layer import FaultLayer

__all__ = ["FaultDetector", "TableRepair", "GraphRepair"]

#: Poll period for re-sweeping a crashed node's inbound queues while
#: the (String Figure) recovery pipeline converges, and the cycles
#: after which a sweep that never converges fails the run.
SWEEP_INTERVAL = 64
SWEEP_HORIZON = 100_000


class TableRepair:
    """String Figure repair: route every window around a failed wire.

    A failed wire ``u - v`` corrupts routing state in two places, and
    both must be fixed or greedy forwarding can cycle:

    * the endpoints' entries for each other (``u``'s entry for ``v`` and
      vice versa, whatever their hop) become unusable;
    * the **two-hop look-ahead of the endpoints' neighbors**: a router
      ``r`` adjacent to ``u`` may list ``v`` as a two-hop target *via
      u*.  With the wire dead, ``r`` would keep committing packets to
      an impossible hop — ``u`` cannot honor the commit, re-runs
      greedy, sends the packet back toward ``r``'s neighborhood, and
      the commit/re-commit pair livelocks.  The stale via is therefore
      dropped (the entry leaves the window when its last via goes).

    The failed wires are one of the three inputs every window is a
    function of (``GreediestRouting.failed_links``, with the topology
    and the blocked nodes), so a repair records the wire there and
    recomputes the windows that list an endpoint; every later rebuild
    (crash excision, reconfiguration) keeps the wire out by
    construction.  The recompute bumps the routing generation, which
    drops the routing's decision columns and the policy's candidate
    memo.
    """

    def __init__(self, routing) -> None:
        self.routing = routing

    @property
    def failed_links(self) -> set[tuple[int, int]]:
        """The wires routed around, as ``(min, max)`` pairs."""
        return self.routing.failed_links

    def route_around_link(self, u: int, v: int) -> None:
        """Drop the failed wire from every router's window."""
        self.failed_links.add((min(u, v), max(u, v)))
        self.routing.rebuild(self.routing.routers_listing((u, v)))

    def restore_link(self, u: int, v: int) -> None:
        """Re-admit a flapped wire after it proves healthy again."""
        self.failed_links.discard((min(u, v), max(u, v)))
        self.routing.rebuild(self.routing.routers_listing((u, v)))


class GraphRepair:
    """Baseline repair: edit the graph, recompute minimal routing.

    The topology's cached interconnect graph is mutated in place and a
    fresh policy (the topology's own pairing — XY/minimal-adaptive for
    mesh, minimal ECMP for Jellyfish) is rebuilt over it, then swapped
    into the simulator.  If a crash disconnects the graph, the largest
    connected component keeps routing and every stranded node is ruled
    dead (its traffic drops) — the graceful-degradation floor.
    """

    def __init__(self, sim: NetworkSimulator, topology, layer: "FaultLayer") -> None:
        self.sim = sim
        self.topology = topology
        self.layer = layer
        self.rebuilds = 0
        self.stranded: set[int] = set()

    def _rebuild(self) -> None:
        import networkx as nx

        graph = self.topology.graph()
        live = graph
        if not nx.is_connected(graph):
            biggest = max(nx.connected_components(graph), key=len)
            newly_stranded = set(graph.nodes()) - biggest - self.stranded
            for node in sorted(newly_stranded):
                self.stranded.add(node)
                self.layer.mark_dead(node)
            live = graph.subgraph(biggest).copy()
        policy = self._policy_for(live)
        policy.num_vcs = self.sim.policy.num_vcs
        policy.attach_simulator(self.sim)
        self.sim.policy = policy
        self.rebuilds += 1

    def _policy_for(self, graph):
        from repro.network.policies import MinimalPolicy

        preference = getattr(self.topology, "_xy_preference", None)
        return MinimalPolicy(graph, adaptive=True, preference=preference)

    def route_around_link(self, u: int, v: int) -> None:
        graph = self.topology.graph()
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)
        self._rebuild()

    def restore_link(self, u: int, v: int) -> None:
        graph = self.topology.graph()
        if graph.has_node(u) and graph.has_node(v):
            graph.add_edge(u, v)
        self._rebuild()

    def remove_node(self, node: int) -> None:
        graph = self.topology.graph()
        if graph.has_node(node):
            graph.remove_node(node)
        self._rebuild()


class FaultDetector:
    """Turns raw fault notifications into delayed repair actions.

    Parameters
    ----------
    sim, layer:
        The simulator and its fault layer.
    repair:
        :class:`TableRepair` or :class:`GraphRepair`.
    recovery:
        Optional :class:`~repro.faults.recovery.RecoveryOrchestrator`
        handling node crashes (topology excision + data
        reconstruction).  Without one, a crash gets routing repair
        only: the node is marked dead and — on baselines — removed
        from the graph.
    detection_timeout:
        Cycles between a fault occurring and the detector acting on it.
    """

    def __init__(
        self,
        sim: NetworkSimulator,
        layer: "FaultLayer",
        repair,
        recovery=None,
        live=None,
        detection_timeout: int = 200,
    ) -> None:
        if detection_timeout < 0:
            raise ValueError(
                f"detection_timeout must be >= 0, got {detection_timeout}"
            )
        self.sim = sim
        self.layer = layer
        self.repair = repair
        self.recovery = recovery
        self.detection_timeout = detection_timeout
        self.detections = 0
        self.absorbed_flaps = 0
        #: Exact fault->detection latency histogram (cycles); cheap
        #: always-on accounting surfaced by the observability probes.
        self.detection_latency = QuantileSketch()
        if live is not None and isinstance(repair, TableRepair):
            # Windows never list a failed wire, across every rebuild;
            # still, re-sweep anything that slipped onto a dead port
            # meanwhile after every event.
            live.on_complete.append(self._on_reconfig_complete)

    def _on_reconfig_complete(self, event) -> None:
        for u, v in sorted(self.repair.failed_links):
            self.layer.sweep_link(u, v)
            self.layer.sweep_link(v, u)

    # -- notifications from the injector -----------------------------------

    def notice(self, record: "FaultRecord") -> None:
        """A fault just happened; schedule its detection."""
        self.sim.schedule(
            self.sim.now + self.detection_timeout,
            lambda now, record=record: self._detect(now, record),
        )

    def link_restored(self, record: "FaultRecord") -> None:
        """A flapped wire came back up (called at restore time)."""
        if record.t_detected is None:
            # The flap was shorter than the detection timeout: the
            # detector never saw it ("absorbed"); _detect notes it.
            return
        u, v = record.link
        self.repair.restore_link(u, v)
        record.t_repaired = self.sim.now

    def node_resumed(self, record: "FaultRecord") -> None:
        """A hung node resumed (called at resume time)."""
        self.layer.suspect.discard(record.node)
        if record.t_detected is not None:
            record.t_repaired = self.sim.now

    # -- detection ----------------------------------------------------------

    def _detect(self, now: int, record: "FaultRecord") -> None:
        kind = record.kind
        if kind in ("link_down", "link_flap"):
            u, v = record.link
            healthy = (min(u, v), max(u, v)) not in self.layer.failed_wires
            if kind == "link_flap" and healthy:
                # Restored before anyone noticed: a transient the
                # network absorbed with loss but no repair action.
                # (The *failure registry* is the truth here, not the
                # freeze bit — the wire may still be frozen because a
                # hang of its endpoint owns the freeze, and blocking it
                # in the tables would blacklist a healthy wire with
                # nothing ever unblocking it.)
                self.absorbed_flaps += 1
                record.absorbed = True
                record.t_detected = now
                record.t_repaired = now
                return
            record.t_detected = now
            self.detections += 1
            self.detection_latency.add(now - record.t_fault)
            self.repair.route_around_link(u, v)
            r1, d1 = self.layer.sweep_link(u, v)
            r2, d2 = self.layer.sweep_link(v, u)
            record.swept = r1 + r2 + d1 + d2
            if kind == "link_down":
                record.t_repaired = now
            return
        if kind == "node_hang":
            if record.node not in self.layer.hung:
                # Already resumed: another absorbed transient.
                self.absorbed_flaps += 1
                record.absorbed = True
                record.t_detected = now
                record.t_repaired = now
                return
            record.t_detected = now
            self.detections += 1
            self.detection_latency.add(now - record.t_fault)
            # Advise sources off the unresponsive node; the backlog in
            # its neighborhood stays (backpressure is physical) and
            # drains after resume.
            self.layer.suspect.add(record.node)
            return
        # node_crash
        record.t_detected = now
        self.detections += 1
        self.detection_latency.add(now - record.t_fault)
        node = record.node
        self.layer.mark_dead(node)
        # The physical inbound set is fixed at crash time; snapshotting
        # it from the topology makes every later sweep O(radix) instead
        # of a full port-dict scan (missing ports are harmless:
        # take_queued on them returns nothing).
        topo = getattr(self.repair, "routing", None)
        topo = topo.topology if topo is not None else self.repair.topology
        inbound = {w for w in topo.neighbors(node)}
        in_nbrs = getattr(topo, "in_neighbors", None)
        if in_nbrs is not None:
            inbound.update(in_nbrs(node))
        pairs = [(w, node) for w in sorted(inbound) if w != node]
        self._sweep_around(pairs, record)
        if self.recovery is not None:
            self.recovery.handle_crash(record)
        elif isinstance(self.repair, GraphRepair):
            self.repair.remove_node(node)
            record.t_repaired = now
        else:
            record.t_repaired = now
        self._schedule_sweeps(node, pairs, record, now)

    # -- crash sweeping ------------------------------------------------------

    def _sweep_around(self, pairs, record: "FaultRecord") -> int:
        """Re-route everything queued toward the crashed node."""
        swept = 0
        for u, v in pairs:
            r, d = self.layer.sweep_link(u, v)
            swept += r + d
        record.swept += swept
        return swept

    def _schedule_sweeps(
        self, node: int, pairs, record: "FaultRecord", since: int
    ) -> None:
        """Keep sweeping until routing stops sending transit at *node*.

        Between detection and the recovery pipeline's block/rebuild
        step, greedy routing may still pick the dead node as a transit
        target; swept packets re-enter, re-forward, and possibly queue
        again — bounded by the pipeline latency.  Sweeping stops once
        the node is quiescent (or the repair finished and nothing is
        queued).
        """

        def sweep(now: int) -> None:
            swept = self._sweep_around(pairs, record)
            done = record.t_repaired is not None or record.t_recovered is not None
            if swept == 0 and (done or self.sim.node_quiescent(node)):
                return
            if now - since > SWEEP_HORIZON:
                raise RuntimeError(
                    f"crash sweeps around node {node} did not converge within "
                    f"{SWEEP_HORIZON} cycles — repair never landed?"
                )
            self.sim.schedule(now + SWEEP_INTERVAL, sweep)

        self.sim.schedule(self.sim.now + SWEEP_INTERVAL, sweep)
