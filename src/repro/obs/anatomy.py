"""Per-packet latency anatomy: an exact delay decomposition.

:class:`LatencyAnatomy` splits every delivered packet's end-to-end
latency into physically-attributed components:

``router``
    Pipeline cycles between an arrival and the packet becoming
    head-ready on its output queue (``router_cycles`` per traversal).
``queueing``
    Head-ready cycles spent waiting while the outbound wire carried
    *same-class* traffic (or any traffic on the classless path).
``arbitration``
    Head-ready cycles spent waiting while the wire carried a *different
    class* under an installed QoS table — the DRR/priority hold.
``credit_stall``
    Head-ready cycles with the wire idle: blocked on downstream
    VC/credit availability (or a frozen link), not on occupancy.
``serialization``
    Cycles the packet's own flits occupied its outbound wires.
``wire``
    SerDes plus wire-propagation cycles.
``requeue``
    Cycles spent parked at a hung router, held in a reconfiguration
    window, or between being swept off a dead link and re-entering —
    the fault/elasticity detour time.

**The conservation law.**  Components are *telescoping deltas between
hook timestamps*: every hook charges ``now - last`` to exactly one
component and advances ``last``, so on delivery the component sum
equals ``arrive_time - inject_time`` **exactly, per packet, by
construction** — checked anyway on every delivery, with violations
counted and surfaced (tests and ``repro trace`` fail on any).

Queue-wait attribution keeps the same exactness: the wait window
``[ready, send)`` is intersected with the recorded busy segments of the
outbound wire (each ``(start, end, tclass)`` of a transmission), the
covered cycles are charged to ``queueing``/``arbitration`` and to the
blocking class in the interference matrix, and the *uncovered*
remainder — wire idle, so the hold was flow control — is
``credit_stall``.  Segment lists are pruned (``segment_limit``) with a
base offset, so a pathological multi-thousand-cycle wait may see its
oldest blocking attributed to ``credit_stall``; the per-packet sum
stays exact regardless.

DRAM service is deliberately *not* a network component: the network
decomposition covers injection to ejection.  The service layer adds
``admission`` (submit to inject) and ``dram`` (everything between the
request legs) as remainders per request — see
``FabricService`` slow-request records and ``docs/LATENCY.md``.

Installed via :meth:`repro.obs.FabricProbes.install_anatomy`; when
absent every probe hook pays one ``is None`` test, and the simulator
itself stays bit-identical either way (the hooks never schedule events
or allocate sequence numbers).  Packets injected before a mid-run
install carry no state and are skipped whole (counted in
``preinstall_skips``), which is what makes the daemon's lazy
first-scrape install safe.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.obs.hotspots import HotspotAggregator

__all__ = ["COMPONENTS", "LatencyAnatomy"]

#: Component names, in report order.  Indices below must match.
COMPONENTS = (
    "router", "queueing", "arbitration", "credit_stall",
    "serialization", "wire", "requeue",
)
_ROUTER, _QUEUEING, _ARBITRATION, _CREDIT_STALL = 0, 1, 2, 3
_SERIALIZATION, _WIRE, _REQUEUE = 4, 5, 6
_NCOMP = len(COMPONENTS)

# Per-packet state slots (a flat list is ~2x faster than an object
# here), parked on the packet's ``obs_state`` field at inject and
# cleared at deliver/drop so each hook pays one attribute load.
# [0] in_flight flag (True between send/inject and the next arrival)
# [1] last hook timestamp (the telescoping cursor)
# [2] traffic class
# [3] absolute segment index of the outbound wire at queue join
# [4:4+_NCOMP] component accumulators
_ST_FLY, _ST_LAST, _ST_CLS, _ST_SEG = 0, 1, 2, 3
_ST_COMP = 4


class _WireState:
    """Per-directed-wire hot state: busy segments + link accumulator.

    Parked directly on the port's ``obs_wire`` slot (ports are stable
    for a simulator's lifetime) so the per-hop hooks pay a single
    attribute load.  ``owner`` ties the state to one anatomy instance:
    a freshly installed anatomy on the same simulator sees a foreign
    owner and rebuilds, never feeding a predecessor's aggregator.
    """

    __slots__ = ("segs", "base", "link", "owner")

    def __init__(self, link, owner) -> None:
        #: (start, end, tclass) per transmission, append-ordered (and
        #: therefore sorted by start — sends happen at non-decreasing
        #: ``now``).
        self.segs: list[tuple[int, int, int]] = []
        #: Count of segments pruned off the front (keeps the absolute
        #: indices recorded at queue join valid).
        self.base = 0
        #: The hotspot aggregator's LinkContention row for this wire.
        self.link = link
        #: The LatencyAnatomy this state belongs to.
        self.owner = owner


class LatencyAnatomy:
    """Delay decomposition + hotspot feed for one instrumented simulator."""

    def __init__(
        self,
        class_names: dict[int, str] | None = None,
        segment_limit: int = 4096,
        svc_index_limit: int = 8192,
    ) -> None:
        if class_names is None:
            # The repo-wide default table convention (PR-9): ids are
            # meaningful even on classless runs because packets carry
            # the tag regardless of whether a table is installed.
            class_names = {0: "latency", 1: "bulk", 2: "background"}
        #: Class id -> readable name for matrix/metric labels.
        self.class_names: dict[int, str] = dict(class_names)
        self.segment_limit = max(64, segment_limit)
        self.hotspots = HotspotAggregator()
        #: Per-class totals: class id -> [delivered, latency_sum,
        #: comp0..compN] (latency_sum == sum of the component columns —
        #: the aggregate face of the conservation law).
        self.class_totals: dict[int, list[int]] = {}
        self.delivered = 0
        self.dropped = 0
        self.retransmit_resets = 0
        #: Packets seen at a lifecycle hook with no inject record
        #: (injected before a mid-run install) — skipped whole.
        self.preinstall_skips = 0
        self.conservation_violations = 0
        #: First few violating packets, for diagnosis.
        self.violation_examples: list[dict[str, Any]] = []
        #: Service-request component index: ("svc", request) context
        #: packets fold their breakdown here, summed across legs, popped
        #: by the service at completion (FIFO-bounded against leaks from
        #: requests that complete without a network leg).
        self._svc: dict[Any, list[int]] = {}
        self._svc_order: deque = deque()
        self._svc_limit = svc_index_limit

    # -- hook feed (called via FabricProbes, hot path) ---------------------

    def inject(self, packet, now: int) -> None:
        if packet.obs_state is not None:
            # The fault layer re-sent this very packet object (clones
            # get fresh pids): inject_time was reset, so the clock — and
            # the decomposition — restarts with it.
            self.retransmit_resets += 1
        # [fly, last, cls, seg, comp0..comp6] — literal, one allocation.
        packet.obs_state = [True, now, packet.tclass, 0, 0, 0, 0, 0, 0, 0, 0]

    def arrive(self, packet, now: int) -> None:
        st = packet.obs_state
        if st is None:
            self.preinstall_skips += 1
            return
        delta = now - st[_ST_LAST]
        if delta:
            if st[_ST_FLY]:
                st[_ST_COMP + _WIRE] += delta
            else:
                # A second arrival without a send in between: the packet
                # was parked (hung router / reconfig window) or swept
                # off a disabled link and re-entered.
                st[_ST_COMP + _REQUEUE] += delta
        st[_ST_FLY] = False
        st[_ST_LAST] = now

    def queue_join(self, port, packet, ready: int, now: int) -> None:
        wire = port.obs_wire
        if wire is None or wire.owner is not self:
            wire = _WireState(self.hotspots.link(port.u, port.v), self)
            port.obs_wire = wire
        st = packet.obs_state
        if st is not None:
            st[_ST_SEG] = wire.base + len(wire.segs)
        # HotspotAggregator.note_enqueue, inlined (once per hop; the
        # sketch is a plain value->count map by contract).
        link = wire.link
        link.enqueues += 1
        occ = port.count
        sketch = link.occupancy_sketch
        sketch.count += 1
        counts = sketch.counts
        counts[occ] = counts.get(occ, 0) + 1

    def dequeue(self, port, packet, ready: int, now: int) -> None:
        """Transmission start (fires once per hop, on the same event as
        ``on_send``): splits the head-ready wait, charges serialization
        (``tail == now + size_flits`` is deterministic here), and
        records the wire's busy segment.  Wire time of another class
        counts as ``arbitration`` only on a class-aware port (one with
        per-class counts, which only ``install_qos`` sets)."""
        wire = port.obs_wire
        if wire is None or wire.owner is not self:
            wire = _WireState(self.hotspots.link(port.u, port.v), self)
            port.obs_wire = wire
        tail = now + packet.size_flits
        segs = wire.segs
        st = packet.obs_state
        if st is not None:
            st[_ST_COMP + _ROUTER] += ready - st[_ST_LAST]
            wait = now - ready
            # HotspotAggregator.note_wait, inlined (once per hop).
            link = wire.link
            link.dequeues += 1
            link.wait_cycles += wait
            sketch = link.wait_sketch
            sketch.count += 1
            counts = sketch.counts
            counts[wait] = counts.get(wait, 0) + 1
            if wait:
                # Split the wait by intersecting [ready, now) with the
                # wire's busy segments, walking a cursor so overlapping
                # multi-channel segments never double-charge; the
                # uncovered remainder is flow-control hold.
                covered_same = 0
                covered_cross = 0
                if segs:
                    # Segments recorded before the join index can still
                    # overlap the window only if they were mid-flight at
                    # join time — at most one per physical channel.
                    lo = st[_ST_SEG] - wire.base - len(port.free_at)
                    if lo < 0:
                        lo = 0
                    cursor = ready
                    my_cls = st[_ST_CLS]
                    qos = port.cls_count is not None
                    note_blocking = self.hotspots.note_blocking
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
                            note_blocking(my_cls, seg_cls, overlap)
                            cursor = b
                            if cursor >= now:
                                break
                st[_ST_COMP + _QUEUEING] += covered_same
                st[_ST_COMP + _ARBITRATION] += covered_cross
                st[_ST_COMP + _CREDIT_STALL] += (
                    wait - covered_same - covered_cross)
            st[_ST_COMP + _SERIALIZATION] += tail - now
            st[_ST_LAST] = tail
            st[_ST_FLY] = True
        # The packet's own segment lands after the split (its start is
        # ``now``, outside the wait window) — recorded even for
        # pre-install packets so later waits intersect correctly.
        segs.append((now, tail, packet.tclass))
        if len(segs) > self.segment_limit:
            drop = len(segs) // 2
            del segs[:drop]
            wire.base += drop

    #: Former name of :meth:`dequeue`.  Nothing calls it; it stays only
    #: because the benchmark ledger's span table still lists it.
    qos_dequeue = dequeue

    def deliver(self, packet, now: int) -> list[int] | None:
        """Finalize one delivery; returns the component vector (or None
        for a pre-install packet)."""
        st = packet.obs_state
        if st is None:
            self.preinstall_skips += 1
            return None
        packet.obs_state = None
        delta = now - st[_ST_LAST]
        if delta:
            comp = _WIRE if st[_ST_FLY] else _REQUEUE
            st[_ST_COMP + comp] += delta
        comps = st[_ST_COMP:]
        total = sum(comps)
        latency = now - packet.inject_time
        if total != latency:
            self.conservation_violations += 1
            if len(self.violation_examples) < 8:
                self.violation_examples.append({
                    "pid": packet.pid,
                    "latency": latency,
                    "component_sum": total,
                    "components": dict(zip(COMPONENTS, comps)),
                })
        self.delivered += 1
        cls = st[_ST_CLS]
        totals = self.class_totals.get(cls)
        if totals is None:
            totals = [0, 0] + [0] * _NCOMP
            self.class_totals[cls] = totals
        totals[0] += 1
        totals[1] += latency
        for i in range(_NCOMP):
            totals[2 + i] += comps[i]
        context = packet.context
        if (
            isinstance(context, tuple) and len(context) == 2
            and context[0] == "svc"
        ):
            self._fold_svc(context[1], comps)
        return comps

    def drop(self, packet, now: int) -> None:
        if packet.obs_state is not None:
            packet.obs_state = None
            self.dropped += 1

    # -- service-request index ---------------------------------------------

    def _fold_svc(self, request, comps: list[int]) -> None:
        entry = self._svc.get(request)
        if entry is None:
            self._svc[request] = list(comps)
            order = self._svc_order
            order.append(request)
            if len(order) > self._svc_limit:
                self._svc.pop(order.popleft(), None)
        else:
            for i in range(_NCOMP):
                entry[i] += comps[i]

    def take_request(self, request) -> dict[str, int] | None:
        """Pop the summed network components of service *request*
        (None when its packets predate the install or never existed)."""
        comps = self._svc.pop(request, None)
        if comps is None:
            return None
        return dict(zip(COMPONENTS, comps))

    # -- reports -----------------------------------------------------------

    def class_label(self, cls: int) -> str:
        return self.class_names.get(cls, f"cls{cls}")

    def component_totals(self) -> dict[str, int]:
        """Fleet-wide cycles per component, all classes summed."""
        out = dict.fromkeys(COMPONENTS, 0)
        for totals in self.class_totals.values():
            for i, name in enumerate(COMPONENTS):
                out[name] += totals[2 + i]
        return out

    def class_breakdown(self) -> dict[str, dict[str, Any]]:
        """Per-class delivered count, mean latency, and component stack."""
        out: dict[str, dict[str, Any]] = {}
        for cls, totals in sorted(self.class_totals.items()):
            delivered, latency_sum = totals[0], totals[1]
            out[self.class_label(cls)] = {
                "class_id": cls,
                "delivered": delivered,
                "latency_cycles": latency_sum,
                "latency_mean": (
                    latency_sum / delivered if delivered else 0.0
                ),
                "components": {
                    name: totals[2 + i]
                    for i, name in enumerate(COMPONENTS)
                },
            }
        return out

    def conserved(self) -> bool:
        """True when every delivered packet's components summed exactly."""
        return self.conservation_violations == 0

    def summary(self, top_k: int = 8) -> dict[str, Any]:
        """JSON-safe roll-up (the ``anatomy.json`` artifact body)."""
        return {
            "components": COMPONENTS,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "retransmit_resets": self.retransmit_resets,
            "preinstall_skips": self.preinstall_skips,
            "conserved": self.conserved(),
            "conservation_violations": self.conservation_violations,
            "violation_examples": list(self.violation_examples),
            "component_totals": self.component_totals(),
            "per_class": self.class_breakdown(),
            "hotspots": self.hotspots.summary(
                top_k=top_k, class_names=self.class_names
            ),
        }

    def payload(self, top_k: int = 3) -> dict[str, Any]:
        """Flat ``obs_``-style fields for sweep-report rows."""
        totals = self.component_totals()
        grand = sum(totals.values())
        out: dict[str, Any] = {
            "obs_anatomy_delivered": self.delivered,
            "obs_anatomy_conserved": self.conserved(),
        }
        for name in COMPONENTS:
            out[f"obs_{name}_frac"] = (
                round(totals[name] / grand, 4) if grand else 0.0
            )
        for rank, entry in enumerate(self.hotspots.top_links(top_k)):
            out[f"obs_hot_link_{rank}"] = (
                f"{entry.u}->{entry.v}:{entry.wait_cycles}"
            )
        for i, row in sorted(self.hotspots.matrix.items()):
            blocked = self.class_label(i)
            for j, cycles in sorted(row.items()):
                out[f"obs_wait_{blocked}_behind_{self.class_label(j)}"] = (
                    cycles
                )
        return out

    # -- metrics registry ---------------------------------------------------

    def register_metrics(self, registry, top_k: int = 16) -> None:
        """Register labeled pull-series on a MetricsRegistry."""

        def collect(emit, self=self, top_k=top_k):
            for cls, totals in sorted(self.class_totals.items()):
                label = self.class_label(cls)
                for i, name in enumerate(COMPONENTS):
                    emit(
                        "anatomy_component_cycles_total", "counter",
                        totals[2 + i],
                        labels={"component": name, "tclass": label},
                    )
            emit(
                "anatomy_delivered_total", "counter", self.delivered,
            )
            emit(
                "anatomy_conservation_violations_total", "counter",
                self.conservation_violations,
            )
            for entry in self.hotspots.top_links(top_k):
                emit(
                    "anatomy_link_wait_cycles_total", "counter",
                    entry.wait_cycles,
                    labels={"link": f"{entry.u}->{entry.v}"},
                )
            for i, row in sorted(self.hotspots.matrix.items()):
                for j, cycles in sorted(row.items()):
                    emit(
                        "anatomy_interference_cycles_total", "counter",
                        cycles,
                        labels={
                            "blocked": self.class_label(i),
                            "behind": self.class_label(j),
                        },
                    )

        registry.collector(collect)
