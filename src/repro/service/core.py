"""The deterministic heart of service mode: a resident fabric.

A :class:`FabricService` owns one complete simulated memory fabric —
topology, routing, :class:`~repro.network.simulator.NetworkSimulator`,
:class:`~repro.memory.address.AddressMapper`,
:class:`~repro.memory.migration.PageDirectory`, banked DRAM nodes, and
the full elasticity/migration/fault stack of PRs 2–5 — and exposes it
as a request-serving system instead of a batch scenario.

**Sequencing invariant.**  The core never reads a wall clock.  All
external inputs enter through exactly two methods and only *between*
event-loop runs:

* :meth:`submit` — one read/write page request, stamped at the current
  simulated cycle and appended to the request log;
* :meth:`apply` — one control :class:`~repro.ops.Op` (gate off, wake,
  fault, drain; :meth:`scale_down`, :meth:`scale_up` and
  :meth:`inject_fault` build one), likewise stamped and logged.

Callers alternate ``advance_to(t)`` / ``submit(...)`` so every
submission happens at a quiescent cycle boundary.  Under that
discipline the service's evolution — per-request latencies, admission
decisions, SimStats counters, page placement — is a pure function of
the ordered log, which is what makes :func:`repro.service.log.replay`
bit-identical and the asyncio frontier testable.

**Request path.**  An injected request runs the memory-request
lifecycle shared with the migration foreground
(:class:`~repro.memory.requests.MemoryRequestPath`): directory lookup,
serve / stall / forward / lost, DRAM service and the response.  The
service keeps what comes before and after it: admission, the queue and
its pump, the timeout reaper, tenants and the slow log.

**Admission control.**  Requests are injected immediately while the
fabric has headroom; near saturation they queue (bounded FIFO) and past
the queue bound they shed.  Headroom is judged on the PR-4 O(1)
counters: a global in-flight request budget (``max_outstanding``) plus
a per-destination watermark on ``sim.inflight_to(node)`` so one hot
node cannot absorb the whole budget.  Per-tenant accounting (submitted
/ completed / shed / queued / failed plus exact p50/p99 latency via
:class:`~repro.network.stats.QuantileSketch`) is kept per stream.

**Conservation.**  At drain the invariants of every prior PR are
checked together: ``sent == delivered + dropped``, page-directory
one-place conservation, and — new here — request conservation: every
submitted request ends exactly one way (done / shed / failed /
timeout), ``outstanding == 0``.
"""

from __future__ import annotations

import hashlib
import zlib
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.network.stats import QuantileSketch
from repro.ops import Op
from repro.ops import apply as apply_op

__all__ = ["FabricService", "ServiceRequest", "TenantStats"]

#: Terminal request states (``ServiceRequest.status`` values).
TERMINAL_STATES = ("done", "shed", "failed", "timeout", "error")

#: Most event-loop drain / fault-layer flush rounds one ``drain`` runs.
DRAIN_ROUNDS = 64


@dataclass(eq=False)
class ServiceRequest:
    """One client read/write request moving through the fabric.

    ``latency`` is end-to-end simulated cycles from :attr:`t_submit`
    (admission) to completion — it includes any admission-queue wait,
    the network round trip, DRAM service, and migration stalls, which
    is what a client actually observes.  Compared and hashed by
    identity: the request itself is its packets' context key.
    """

    seq: int
    tenant: str
    op: str
    page: int
    offset: int
    size: int
    t_submit: int
    req_id: Any = None
    #: Traffic class id (tenant-derived under QoS; 0 when classless).
    tclass: int = 0
    status: str = "pending"
    t_inject: int | None = None
    t_done: int | None = None
    latency: int | None = None
    error: str | None = None
    src_node: int | None = None
    #: Completion callback (set by the frontier); fired exactly once.
    on_done: Callable[["ServiceRequest"], None] | None = field(
        default=None, repr=False, compare=False
    )

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe view of the request (wire responses, tests)."""
        return {
            "seq": self.seq,
            "tenant": self.tenant,
            "op": self.op,
            "page": self.page,
            "offset": self.offset,
            "size": self.size,
            "t_submit": self.t_submit,
            "req_id": self.req_id,
            "status": self.status,
            "latency": self.latency,
            "error": self.error,
        }


@dataclass
class TenantStats:
    """Per-stream accounting: request counts and exact percentiles."""

    name: str
    submitted: int = 0
    completed: int = 0
    shed: int = 0
    failed: int = 0
    queued: int = 0
    reads: int = 0
    writes: int = 0
    local_ops: int = 0
    bytes_moved: int = 0
    sketch: QuantileSketch = field(default_factory=QuantileSketch, repr=False)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot (the ``stats`` verb's per-tenant block)."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "failed": self.failed,
            "queued": self.queued,
            "reads": self.reads,
            "writes": self.writes,
            "local_ops": self.local_ops,
            "bytes_moved": self.bytes_moved,
            "p50": self.sketch.percentile(50),
            "p99": self.sketch.percentile(99),
        }


class FabricService:
    """A resident simulated memory fabric serving live request streams.

    Construction builds the full stack fresh through
    :func:`repro.fabric.build_fabric` (never memoized — control verbs
    mutate topology and routing tables): for String Figure, the
    adaptive greediest router, the online reconfiguration pipeline with
    real page migration, and the fault detection/repair/recovery stack;
    for baseline designs the same minus the ``scale`` verb (live
    reconfiguration requires shortcut wires).  A String Figure without
    shortcut wires (S2) is refused with ``ValueError``: crash recovery
    patches the space-0 ring with them.

    The constructor parameters are all JSON-safe and round-trip through
    :meth:`config_dict` / :meth:`from_config`, which is how a captured
    request log rebuilds an identical service for replay.
    """

    def __init__(
        self,
        nodes: int = 144,
        design: str = "SF",
        ports: int | None = None,
        topology_seed: int = 0,
        seed: int = 0,
        footprint_pages: int = 512,
        page_bytes: int = 4096,
        mirrored: bool = True,
        max_outstanding: int = 256,
        queue_depth: int = 512,
        node_watermark: int = 32,
        request_timeout: int = 50_000,
        pump_interval: int = 16,
        reaper_interval: int = 2_000,
        mig_rate_limit: float = 64.0,
        detection_timeout: int = 200,
        retransmit_timeout: int = 64,
        max_retries: int = 8,
        qos: bool = False,
        tenant_classes: dict[str, int] | None = None,
        slow_log_threshold: int | None = None,
        slow_log_size: int = 256,
    ) -> None:
        from repro.fabric import build_fabric
        from repro.memory.requests import MemoryRequestPath
        from repro.topologies.registry import make_topology

        if footprint_pages < 1:
            raise ValueError(
                f"footprint_pages must be >= 1, got {footprint_pages}"
            )
        self._params = {
            "nodes": nodes, "design": design, "ports": ports,
            "topology_seed": topology_seed, "seed": seed,
            "footprint_pages": footprint_pages, "page_bytes": page_bytes,
            "mirrored": mirrored, "max_outstanding": max_outstanding,
            "queue_depth": queue_depth, "node_watermark": node_watermark,
            "request_timeout": request_timeout,
            "pump_interval": pump_interval,
            "reaper_interval": reaper_interval,
            "mig_rate_limit": mig_rate_limit,
            "detection_timeout": detection_timeout,
            "retransmit_timeout": retransmit_timeout,
            "max_retries": max_retries,
            "qos": bool(qos),
            "tenant_classes": (
                dict(tenant_classes) if tenant_classes else None
            ),
            "slow_log_threshold": slow_log_threshold,
            "slow_log_size": slow_log_size,
        }
        topology = make_topology(
            design, nodes, seed=topology_seed, ports=ports
        )
        self.topology = topology
        #: The source ring and the activation count it was built at.
        self._ring: list[int] = []
        self._ring_changes = -1
        fabric = build_fabric(
            topology,
            sample_free=True,
            qos=qos,
            footprint_pages=footprint_pages,
            page_bytes=page_bytes,
            mig_rate_limit=mig_rate_limit,
            faults=True,
            retransmit_timeout=retransmit_timeout,
            max_retries=max_retries,
            detection_timeout=detection_timeout,
            mirrored=mirrored,
            seed=seed,
        )
        self.fabric = fabric
        self.sim = fabric.sim
        #: Installed QoS class table (None = classless; the classless
        #: request path, admission, digests, and replay stay
        #: bit-identical to the pre-QoS service).  Under a class table
        #: page moves and retransmissions ride the background class.
        self._qos = fabric.qos
        #: Tenant name -> class id; unmapped tenants ride the default
        #: (latency-critical) class 0.
        self.tenant_classes: dict[str, int] = dict(tenant_classes or {})
        self.layer = fabric.layer
        self.directory = fabric.directory
        self.engine = fabric.engine
        self.live = fabric.live
        self.recovery = fabric.recovery
        self.fault_injector = fabric.fault_injector
        self.requests = MemoryRequestPath(
            self.sim, self.directory, fabric.mapper, fabric.memory_node,
            self._complete, on_fail=self._fail, on_serve=self._on_serve,
            tag="svc",
        )

        self.footprint_pages = footprint_pages
        self.page_bytes = page_bytes
        self.max_outstanding = max_outstanding
        self.queue_depth = queue_depth
        self.node_watermark = node_watermark
        self.request_timeout = request_timeout
        self.pump_interval = pump_interval
        self.reaper_interval = reaper_interval

        self.admitting = True
        self.outstanding = 0
        self.tenants: dict[str, TenantStats] = {}
        self.log_entries: list[dict[str, Any]] = []
        #: (seq, status, latency) in completion order — the digest feed.
        self.completions: list[tuple[int, str, int | None]] = []
        self.shed_total = 0
        self.queued_total = 0
        self.timeouts = 0
        self._next_seq = 0
        self._pending: dict[int, ServiceRequest] = {}
        self._queue: deque[ServiceRequest] = deque()
        self._pump_scheduled = False
        self._pumping = False
        self._reaper_scheduled = False
        #: Queued-request count per traffic class (QoS admission only).
        self._queued_by_class: dict[int, int] = (
            {cls.id: 0 for cls in self._qos.classes} if self._qos is not None else {}
        )
        #: Installed observability probes (see :meth:`install_probes`);
        #: None keeps the service entirely uninstrumented.
        self.probes = None
        #: Slow-request log: completed requests whose end-to-end latency
        #: reached ``slow_log_threshold`` land here (bounded ring) with
        #: a full delay breakdown when the anatomy is installed.  None
        #: threshold disables the log entirely.
        self.slow_log_threshold = slow_log_threshold
        self.slow_log: deque[dict[str, Any]] = deque(
            maxlen=max(1, slow_log_size)
        )
        self.slow_log_total = 0
        #: Callback fired with each slow-request record as it is logged
        #: (the daemon's ``--slow-log`` stream); None = ring only.
        self.on_slow: Callable[[dict[str, Any]], None] | None = None

    # -- construction helpers ----------------------------------------------

    def config_dict(self) -> dict[str, Any]:
        """The constructor parameters, JSON-safe (the capture header)."""
        return dict(self._params)

    @classmethod
    def from_config(cls, params: dict[str, Any]) -> "FabricService":
        """Rebuild a service identical to one captured in a log header."""
        return cls(**params)

    # -- time ----------------------------------------------------------------

    def advance_to(self, t: int) -> None:
        """Run the event loop up to simulated cycle *t* (inclusive)."""
        if t > self.sim.now:
            self.sim.run(until=t)

    def advance(self, cycles: int) -> None:
        """Run the event loop *cycles* beyond the current cycle."""
        self.advance_to(self.sim.now + cycles)

    # -- request path --------------------------------------------------------

    def tenant(self, name: str) -> TenantStats:
        """The accounting record for tenant *name* (created on demand)."""
        stats = self.tenants.get(name)
        if stats is None:
            stats = TenantStats(name)
            self.tenants[name] = stats
        return stats

    def submit(
        self,
        tenant: str,
        op: str,
        page: int,
        offset: int = 0,
        size: int | None = None,
        req_id: Any = None,
        on_done: Callable[[ServiceRequest], None] | None = None,
    ) -> ServiceRequest:
        """Admit one read/write request at the current simulated cycle.

        Must be called between event-loop runs (the sequencing
        invariant in the module docstring).  The request is logged,
        validated, then either injected, queued, or shed; ``on_done``
        fires exactly once when the request reaches a terminal state —
        possibly synchronously (validation error or shed).
        """
        now = self.sim.now
        if size is None:
            size = self.sim.config.cacheline_bytes
        self.log_entries.append({
            "kind": "request", "t": now, "tenant": tenant, "op": op,
            "page": page, "offset": offset, "size": size, "req_id": req_id,
        })
        stats = self.tenant(tenant)
        stats.submitted += 1
        request = ServiceRequest(
            seq=self._next_seq, tenant=tenant, op=op, page=int(page),
            offset=int(offset), size=int(size), t_submit=now,
            req_id=req_id, tclass=self.class_of_tenant(tenant),
            on_done=on_done,
        )
        self._next_seq += 1

        error = self._validate(request)
        if error is not None:
            self._finish(request, now, "error", error)
            return request
        if op == "read":
            stats.reads += 1
        else:
            stats.writes += 1
        if not self.admitting:
            self._shed(request, now, "draining")
            return request
        # FIFO fairness: once anything queues, new arrivals go behind
        # it.  Under QoS the fairness gate is per class — a queued bulk
        # backlog must not block a latency-class request that still has
        # headroom under its own (larger) budget.
        if self._qos is not None:
            blocked = self._queued_by_class.get(request.tclass, 0) > 0
        else:
            blocked = bool(self._queue)
        if blocked or not self._has_headroom(request):
            if len(self._queue) < self.queue_depth:
                request.status = "queued"
                self._queue.append(request)
                self._pending[request.seq] = request
                stats.queued += 1
                self.queued_total += 1
                if self._qos is not None:
                    self._queued_by_class[request.tclass] = (
                        self._queued_by_class.get(request.tclass, 0) + 1
                    )
                self._ensure_pump(now)
                self._ensure_reaper(now)
            else:
                self._shed(request, now, "overload")
            return request
        self._inject(request, now)
        return request

    def class_of_tenant(self, tenant: str) -> int:
        """The traffic class of *tenant* (0 — latency — when unmapped
        or classless)."""
        if self._qos is None:
            return 0
        cls = int(self.tenant_classes.get(tenant, 0))
        return cls if 0 <= cls < self._qos.num_classes else 0

    def _validate(self, request: ServiceRequest) -> str | None:
        if request.op not in ("read", "write"):
            return f"unknown op {request.op!r}"
        if not 0 <= request.page < self.footprint_pages:
            return (
                f"page {request.page} out of range "
                f"[0, {self.footprint_pages})"
            )
        if request.offset < 0 or request.size < 1:
            return "offset must be >= 0 and size >= 1"
        if request.offset + request.size > self.page_bytes:
            return (
                f"offset+size ({request.offset + request.size}) exceeds "
                f"page size ({self.page_bytes})"
            )
        return None

    def _has_headroom(self, request: ServiceRequest) -> bool:
        budget = self.max_outstanding
        if self._qos is not None:
            # Class-aware admission: each priority band sees a halved
            # outstanding budget (p0 full, p1 half, p2 quarter...), so
            # under overload bulk queues and sheds first while
            # priority tenants keep admitting.
            priority = self._qos.class_of(request.tclass).priority
            budget = max(1, budget >> priority)
        if self.outstanding >= budget:
            return False
        target = self.directory.resolve(request.page)
        # A lost page (-1) is admitted so the request path fails it.
        return target < 0 or self.sim.inflight_to(target) < self.node_watermark

    def _shed(self, request: ServiceRequest, now: int, reason: str) -> None:
        self.shed_total += 1
        self.tenant(request.tenant).shed += 1
        self._finish(request, now, "shed", reason, count_shed=False)

    def _pick_source(self, tenant: str) -> int | None:
        """A stable, currently-usable injection node for *tenant*.

        The tenant hashes (CRC32 — stable across processes, unlike
        ``hash``) onto a ring position; if that node is gated, crashed,
        or hung, the next usable ring node takes over.  The ring is
        the topology's *current* active set, rebuilt whenever its
        ``activation_changes`` count moves: a ring frozen at
        construction kept hashing tenants onto the pre-scale node
        count, so tenants first seen after an unmount or a scale-up
        landed on stale positions (and could map onto excised nodes
        forever).  Deterministic given identical fabric state, which
        replay guarantees.
        """
        topology = self.topology
        if self._ring_changes != topology.activation_changes:
            self._ring = sorted(topology.active_nodes)
            self._ring_changes = topology.activation_changes
        ring = self._ring
        if not ring:
            return None
        start = zlib.crc32(tenant.encode()) % len(ring)
        for step in range(len(ring)):
            node = ring[(start + step) % len(ring)]
            if not self.layer.usable_source(node):
                continue
            if self.live is not None and not self.live.usable(node):
                continue
            return node
        return None

    def _inject(self, request: ServiceRequest, now: int) -> None:
        src = self._pick_source(request.tenant)
        if src is None:
            self._shed(request, now, "no_usable_source")
            return
        request.src_node = src
        request.status = "inflight"
        request.t_inject = now
        self._pending[request.seq] = request
        self.outstanding += 1
        self._ensure_reaper(now)
        # Only an immediate local serve counts as a local op.
        if self.requests.inject(request, now) == "serve":
            self.tenant(request.tenant).local_ops += 1

    def _on_serve(self, request: ServiceRequest) -> None:
        self.tenant(request.tenant).bytes_moved += request.size

    # -- completion ----------------------------------------------------------

    def _complete(self, request: ServiceRequest, now: int) -> None:
        stats = self.tenant(request.tenant)
        stats.completed += 1
        request.latency = now - request.t_submit
        stats.sketch.add(request.latency)
        # Pop the anatomy's per-request network breakdown on *every*
        # completion (not just slow ones) so the svc index never grows;
        # failed/timed-out requests age out of its FIFO bound instead.
        anatomy = self.probes.anatomy if self.probes is not None else None
        network = (
            anatomy.take_request(request) if anatomy is not None else None
        )
        threshold = self.slow_log_threshold
        if threshold is not None and request.latency >= threshold:
            record = self._slow_record(request, now, network)
            self.slow_log.append(record)
            self.slow_log_total += 1
            if self.on_slow is not None:
                self.on_slow(record)
        self._finish(request, now, "done")

    def _slow_record(
        self,
        request: ServiceRequest,
        now: int,
        network: dict[str, int] | None,
    ) -> dict[str, Any]:
        """One slow-request log line: identity + full delay anatomy.

        ``admission`` is submit-to-inject (queue wait), the network
        components come from the anatomy (summed over every request
        leg), and ``dram`` is the exact remainder — DRAM service plus
        any directory stall — so the parts always sum to ``latency``.
        """
        latency = request.latency or 0
        admission = (
            request.t_inject - request.t_submit
            if request.t_inject is not None else 0
        )
        network_total = sum(network.values()) if network else 0
        record: dict[str, Any] = {
            "seq": request.seq,
            "tenant": request.tenant,
            "op": request.op,
            "page": request.page,
            "size": request.size,
            "src_node": request.src_node,
            "t_submit": request.t_submit,
            "t_done": now,
            "latency": latency,
            "admission": admission,
            "network": network_total,
            "dram": latency - admission - network_total,
        }
        if network is not None:
            record["components"] = network
        if self._qos is not None:
            record["tclass"] = self._qos.class_of(request.tclass).name
        return record

    def _fail(self, request: ServiceRequest, now: int, reason: str) -> None:
        self.tenant(request.tenant).failed += 1
        self._finish(request, now, "failed", reason)

    def _finish(
        self,
        request: ServiceRequest,
        now: int,
        status: str,
        error: str | None = None,
        count_shed: bool = True,
    ) -> None:
        """Move *request* to a terminal state and fire its callback."""
        was_inflight = request.status == "inflight"
        request.status = status
        request.t_done = now
        request.error = error
        self._pending.pop(request.seq, None)
        if was_inflight:
            self.outstanding -= 1
        self.completions.append((request.seq, status, request.latency))
        if request.on_done is not None:
            callback, request.on_done = request.on_done, None
            callback(request)
        if was_inflight:
            self._pump_queue(now)

    # -- admission queue -----------------------------------------------------

    def _ensure_pump(self, now: int) -> None:
        if not self._pump_scheduled and self._queue:
            self._pump_scheduled = True
            self.sim.schedule(now + self.pump_interval, self._pump_event)

    def _pump_event(self, now: int) -> None:
        self._pump_scheduled = False
        self._pump_queue(now)
        self._ensure_pump(now)

    def _pump_queue(self, now: int) -> None:
        """Inject queued requests while headroom lasts (FIFO order).

        Classless: strict FIFO — the head blocks everything behind it.
        Under QoS the pump scans the whole queue once (FIFO *within*
        each class): a latency-class request overtakes a bulk backlog
        that has exhausted its smaller budget, which is the
        work-conserving counterpart of the per-class admission gate.
        An injection that fails on the spot (a lost page) re-enters
        here through :meth:`_finish`; the running pass already covers
        the slot it frees, so the nested call returns at once.
        """
        if self._pumping:
            return
        self._pumping = True
        try:
            if self._qos is None:
                while self._queue:
                    head = self._queue[0]
                    if not self._has_headroom(head):
                        break
                    self._queue.popleft()
                    self._inject(head, now)
                return
            retained: deque[ServiceRequest] = deque()
            while self._queue:
                head = self._queue.popleft()
                if self._has_headroom(head):
                    self._queued_by_class[head.tclass] -= 1
                    self._inject(head, now)
                else:
                    retained.append(head)
            self._queue = retained
        finally:
            self._pumping = False

    def _ensure_reaper(self, now: int) -> None:
        if not self._reaper_scheduled and (self.outstanding or self._queue):
            self._reaper_scheduled = True
            self.sim.schedule(now + self.reaper_interval, self._reaper_event)

    def _reaper_event(self, now: int) -> None:
        """Time out requests stuck past ``request_timeout`` cycles.

        One periodic event scans the pending set instead of one timer
        per request, so an idle service holds zero timer events and
        drains never gallop through stale timers.  A timed-out
        request's late response is ignored on arrival (the pending-map
        lookup misses), keeping packet conservation intact.
        """
        self._reaper_scheduled = False
        expired = [
            r for r in self._pending.values()
            if now - r.t_submit >= self.request_timeout
            and r.status in ("inflight", "queued")
        ]
        for request in sorted(expired, key=lambda r: r.seq):
            if request.status == "queued":
                try:
                    self._queue.remove(request)
                except ValueError:
                    pass
                else:
                    if self._qos is not None:
                        self._queued_by_class[request.tclass] -= 1
            self.timeouts += 1
            self.tenant(request.tenant).failed += 1
            self._finish(request, now, "timeout", "request_timeout")
        self._ensure_reaper(now)

    # -- control verbs -------------------------------------------------------

    def apply(self, op: Op) -> dict[str, Any]:
        """Apply one control op at the current cycle (the control door).

        The op is stamped with the current cycle and checked by
        :func:`repro.ops.apply`; a refused op is answered ``ok: false``
        before anything is logged.  ``drain`` is the service's own
        checkpoint (:meth:`drain`).
        """
        op = replace(op, t=self.sim.now)
        if op.verb == "drain":
            return self.drain()
        return apply_op(self.fabric, op, log=self.log_entries)

    def scale_down(
        self, fraction: float | None = None, count: int | None = None, nodes: list | None = None
    ) -> dict[str, Any]:
        """Gate off nodes (a ``gate_off`` op), pages migrating out.

        The operation is asynchronous inside the simulator; poll
        ``stats`` for ``active_nodes`` to observe completion.
        """
        now = self.sim.now
        return self.apply(Op(now, "gate_off", fraction=fraction, count=count, nodes=nodes))

    def scale_up(self, nodes: list[int] | None = None) -> dict[str, Any]:
        """Wake gated nodes (a ``gate_on`` op), pages migrating back in."""
        return self.apply(Op(self.sim.now, "gate_on", nodes=nodes))

    def inject_fault(
        self, kind: str, node: int | None = None, link: list | None = None, duration: int = 0
    ) -> dict[str, Any]:
        """Fire one unplanned fault (a ``fault`` op) at the current cycle."""
        op = Op(self.sim.now, "fault", fault_kind=kind, node=node, link=link, duration=duration)
        return self.apply(op)

    def apply_control(self, entry: dict[str, Any]) -> dict[str, Any]:
        """Apply one logged control entry (the replay dispatcher)."""
        return self.apply(Op.from_entry(entry))

    # -- drain / conservation ------------------------------------------------

    def drain(self) -> dict[str, Any]:
        """Stop admitting, run everything to quiescence, check the laws.

        Alternates event-loop drains with fault-layer flushes (a flush
        releases credits that can re-activate blocked packets) until
        the heap is empty, the admission queue is spent, and no request
        is outstanding — then evaluates every conservation invariant.
        Admission re-opens afterwards, so an operator ``drain`` is a
        checkpoint, not a shutdown.
        """
        self.log_entries.append(Op(self.sim.now, "drain").to_entry())
        self.admitting = False
        flushed = 0
        for _ in range(DRAIN_ROUNDS):
            if self.sim.pending_events:
                self.sim.drain()
            self._pump_queue(self.sim.now)
            freed = self.layer.flush_stuck()
            flushed += freed
            if (
                not self.sim.pending_events
                and freed == 0
                and self.outstanding == 0
                and not self._queue
            ):
                break
        # Anything still queued found no headroom even at quiescence
        # (e.g. every source crashed): shed it so accounting closes.
        while self._queue:
            request = self._queue.popleft()
            if self._qos is not None:
                self._queued_by_class[request.tclass] -= 1
            self._shed(request, self.sim.now, "drain_shed")
        self.admitting = True
        stats = self.sim.stats
        report = {
            "ok": True,
            "verb": "drain",
            "now": self.sim.now,
            "flushed": flushed,
            "outstanding": self.outstanding,
            "queued": len(self._queue),
            "sent": stats.sent,
            "delivered": stats.delivered,
            "dropped": stats.dropped,
            "conserved": stats.sent == stats.delivered + stats.dropped,
            "page_conservation": self.directory.check_conservation(),
            "pages_lost": len(self.directory.lost),
            "requests_conserved": self._requests_conserved(),
        }
        report["all_conserved"] = bool(
            report["conserved"]
            and report["page_conservation"]
            and report["requests_conserved"]
            and report["outstanding"] == 0
        )
        report["latency"] = self.latency_summary()
        if not report["all_conserved"] and self.probes is not None:
            # Post-mortem: dump the bounded ring of the last simulator
            # events alongside the failed conservation report.
            tracer = self.probes.tracer
            if tracer is not None:
                report["event_ring"] = tracer.ring_dump()
        return report

    def _requests_conserved(self) -> bool:
        """Every submitted request reached exactly one terminal state."""
        submitted = sum(t.submitted for t in self.tenants.values())
        return submitted == len(self.completions) + len(self._pending)

    # -- observability -------------------------------------------------------

    def latency_summary(self) -> dict[str, Any]:
        """Per-tenant and fleet-wide completion-latency percentiles.

        The **single** latency-reporting path: the daemon's ``drain``
        report, the selftest, the offline workload payload, and the
        experiments service table all read these numbers, which come
        straight from the per-tenant ``QuantileSketch`` accumulators
        (fleet-wide percentiles via :meth:`QuantileSketch.merged`, so
        they are exact over the concatenated completion stream).
        """
        per_tenant: dict[str, dict[str, float]] = {
            name: {
                "completed": ts.completed,
                "p50": ts.sketch.percentile(50),
                "p99": ts.sketch.percentile(99),
            }
            for name, ts in sorted(self.tenants.items())
        }
        fleet = QuantileSketch.merged(ts.sketch for ts in self.tenants.values())
        active = [t for t in per_tenant.values() if t["completed"]]
        summary = {
            "p50": fleet.percentile(50),
            "p99": fleet.percentile(99),
            "p50_max": max((t["p50"] for t in active), default=0.0),
            "p99_max": max((t["p99"] for t in active), default=0.0),
            "per_tenant": per_tenant,
        }
        if self._qos is not None:
            summary["per_class"] = self.class_summary()
        return summary

    def class_summary(self) -> dict[str, dict[str, float]]:
        """Per-traffic-class SLO block (empty when classless).

        A tenant's class is fixed at construction, so each row folds
        that class's tenants: counts by summation, percentiles through
        the exact :meth:`QuantileSketch.merged`.
        """
        if self._qos is None:
            return {}
        members: dict[int, list[TenantStats]] = {cls.id: [] for cls in self._qos.classes}
        for name, ts in self.tenants.items():
            members[self.class_of_tenant(name)].append(ts)
        out: dict[str, dict[str, float]] = {}
        for cls in self._qos.classes:
            tenants = members[cls.id]
            sketch = QuantileSketch.merged(ts.sketch for ts in tenants)
            out[cls.name] = {
                "class_id": cls.id,
                "priority": cls.priority,
                "completed": sum(ts.completed for ts in tenants),
                "shed": sum(ts.shed for ts in tenants),
                "queued": self._queued_by_class.get(cls.id, 0),
                "p50": sketch.percentile(50),
                "p99": sketch.percentile(99),
            }
        return out

    def install_probes(self, probes=None, anatomy: bool = True):
        """Attach observability probes across the whole service stack.

        Wires one :class:`repro.obs.FabricProbes` (a default instance
        when *probes* is None) into the simulator hot-path hooks and
        registers pull metrics for the fault detector, the migration
        engine/page directory, and the service-level counters and
        tenant sketches.  ``anatomy=True`` (the default) also installs
        the :class:`~repro.obs.anatomy.LatencyAnatomy` decomposition,
        which is what gives slow-request records their per-component
        network breakdown.  Purely observational: requests, replay
        digests, and ``SimStats`` stay bit-identical (the ``metrics``
        daemon verb installs these lazily on first scrape for exactly
        that reason — packets already in flight at install time are
        skipped whole by the anatomy).  Returns the probes object.
        """
        if probes is None:
            from repro.obs import FabricProbes

            probes = FabricProbes()
        probes.attach_sim(self.sim)
        probes.attach_detector(self.fabric.detector)
        probes.attach_migration(self.engine, self.directory)
        probes.attach_service(self)
        if anatomy:
            probes.install_anatomy()
        self.probes = probes
        return probes

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe state summary (the ``stats`` verb's response)."""
        stats = self.sim.stats
        snap: dict[str, Any] = {
            "ok": True,
            "now": self.sim.now,
            "nodes": self.topology.num_nodes,
            "active_nodes": len(self.topology.active_nodes),
            "outstanding": self.outstanding,
            "queued": len(self._queue),
            "admitting": self.admitting,
            "submitted": sum(t.submitted for t in self.tenants.values()),
            "completed": sum(t.completed for t in self.tenants.values()),
            "shed": self.shed_total,
            "queued_total": self.queued_total,
            "timeouts": self.timeouts,
            "forwarded": self.requests.forwarded,
            "stalled": self.requests.stalled,
            "sent": stats.sent,
            "delivered": stats.delivered,
            "dropped": stats.dropped,
            "in_flight": stats.in_flight,
            "pages": len(self.directory.pages),
            "pages_lost": len(self.directory.lost),
            "migrations": len(self.engine.records),
            "faults": len(self.fault_injector.records),
            "tenants": {
                name: ts.to_dict() for name, ts in sorted(self.tenants.items())
            },
        }
        if self._qos is not None:
            snap["qos"] = {
                "classes": self.class_summary(),
                "tenant_classes": dict(self.tenant_classes),
            }
        if self.slow_log_threshold is not None:
            snap["slow_requests"] = {
                "threshold": self.slow_log_threshold,
                "total": self.slow_log_total,
                "recent": list(self.slow_log)[-8:],
            }
        anatomy = self.probes.anatomy if self.probes is not None else None
        if anatomy is not None:
            snap["anatomy"] = anatomy.summary(top_k=3)
        return snap

    def digest(self) -> dict[str, Any]:
        """Determinism fingerprint: equal digests mean bit-identical runs.

        Hashes the full completion history (sequence, terminal state,
        latency of every request, in completion order) and folds in the
        network-level counters.  ``sim.now`` is deliberately excluded:
        the frontier may advance time past the last event while an
        offline replay stops at it, without any state differing.
        """
        h = hashlib.sha256()
        for seq, status, latency in self.completions:
            h.update(f"{seq}:{status}:{latency}\n".encode())
        stats = self.sim.stats
        out = {
            "completions": h.hexdigest(),
            "requests": len(self.completions),
            "sent": stats.sent,
            "delivered": stats.delivered,
            "dropped": stats.dropped,
            "flit_hops": stats.flit_hops,
            "bit_hops": stats.bit_hops,
            "shed": self.shed_total,
            "forwarded": self.requests.forwarded,
            "stalled": self.requests.stalled,
            "timeouts": self.timeouts,
            "tenants": {
                name: (ts.completed, ts.sketch.percentile(50), ts.sketch.percentile(99))
                for name, ts in sorted(self.tenants.items())
            },
        }
        if self._qos is not None:
            # Classless digests stay byte-identical: the key only
            # exists when a class table is installed.
            out["classes"] = {
                name: (row["completed"], row["p50"], row["p99"])
                for name, row in self.class_summary().items()
            }
        return out
