"""``FabricProbes``: the object the stack accepts via ``install_probes``.

One probes instance composes the three observability pieces — a
:class:`~repro.obs.registry.MetricsRegistry`, an optional
:class:`~repro.obs.timeseries.TimeSeriesRecorder`, and an optional
:class:`~repro.obs.tracer.PacketTracer` — plus an optional
:class:`~repro.obs.anatomy.LatencyAnatomy`, and binds the simulator's
hooks for them:

* six **hook slots**, one per packet-lifecycle site (inject, arrive,
  enqueue, dequeue, send, deliver), each ``None`` or the cheapest
  callable serving every installed consumer (:meth:`hook_slots`): this
  object's fan-out methods with a tracer, the anatomy's own methods
  with only an anatomy, and just the counters' enqueue and dequeue
  otherwise.  Installing or removing a tracer or anatomy rebinds
  them;
* **per-event counting**, an inline increment of :attr:`event_counts`
  in the simulator's run loop; ``on_event`` runs per event only for
  the tracer's event ring or the timeseries boundary;
* rare-path calls behind single ``is None`` tests: ``on_hold`` (an
  arrival parked or dropped instead of queued), ``on_drop`` and
  ``on_credit_stall``.

Counters the simulator keeps anyway are not counted twice: injections,
enqueues and deliveries are read off ``SimStats`` relative to the
install, arrivals off the event counts, and queue high-water marks
live on the ports.  Everything else is **pull**: counters the layers
already keep (fault drops, in-flight pages, tenant sketches) are
registered as probes or collectors resolved at sample/scrape time, so
instrumentation adds no writes to those paths at all.  Probes never
call ``schedule`` and never allocate sequence numbers, which is what
keeps an instrumented run's ``SimStats`` bit-identical (see the
differential suite in ``tests/obs``).
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.tracer import EVENT_NAMES, PacketTracer

__all__ = ["FabricProbes"]

#: The ``SimStats`` totals the derived hop counters read: injections,
#: enqueues and deliveries, in that order.
_HOP_TOTALS = ("sent", "queue_samples", "delivered")
#: The simulator's arrival event code (``EVENT_NAMES`` order).
_ARRIVE = EVENT_NAMES.index("arrive")


class FabricProbes:
    """Observability probes for one simulator (and the stack above it)."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        recorder: TimeSeriesRecorder | None = None,
        tracer: PacketTracer | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Read at the start of each ``run`` (no hook slot depends on it).
        self.recorder = recorder
        self._tracer = tracer
        #: Heap events processed while installed, indexed by event code
        #: (counted inline by the simulator's run loop).
        self.event_counts = [0] * len(EVENT_NAMES)
        self.drops = 0
        self.credit_stalls = 0
        #: Installed :class:`~repro.obs.anatomy.LatencyAnatomy` (None =
        #: no delay decomposition).  Assigning rebinds the hook slots —
        #: see the property below.
        self._anatomy = None
        self._sim = None
        #: Whether the probes are installed in ``_sim`` right now.
        self._bound = False
        #: The derived hop counters (see :attr:`injections`): while
        #: bound, the offsets from the simulator's own totals; while
        #: not, the counts themselves.
        self._hop_base = [0] * len(_HOP_TOTALS)
        #: Per-link high-water carried over an unbind (live values sit
        #: on the simulator's ports while bound).
        self._hw_frozen: dict[tuple[int, int], int] = {}
        #: Transmissions counted without an anatomy, plus those of
        #: anatomies since replaced; ``_tx_mark`` is the installed
        #: anatomy's count when it was installed.
        self._tx = 0
        self._tx_mark = 0

    @classmethod
    def full(
        cls,
        interval: int = 256,
        fraction: float = 0.02,
        seed: int = 0,
        ring_size: int = 256,
        max_records: int = 250_000,
        anatomy: bool = True,
    ) -> "FabricProbes":
        """Probes with timeseries, tracing, and (by default) the latency
        anatomy enabled — the CLI default."""
        registry = MetricsRegistry()
        probes = cls(
            registry=registry,
            recorder=TimeSeriesRecorder(registry, interval=interval),
            tracer=PacketTracer(
                fraction=fraction, seed=seed,
                max_records=max_records, ring_size=ring_size,
            ),
        )
        if anatomy:
            probes.install_anatomy()
        return probes

    def install_anatomy(self, anatomy=None):
        """Attach a :class:`~repro.obs.anatomy.LatencyAnatomy` (a default
        one when *anatomy* is None), register its metric series, and
        return it.  Pass ``None`` to :attr:`anatomy` directly to disable
        decomposition again (registered series keep reporting the last
        accumulated totals).  Idempotent when one is already installed
        and none is passed (no duplicate metric collectors)."""
        if anatomy is None:
            if self._anatomy is not None:
                return self._anatomy
            from repro.obs.anatomy import LatencyAnatomy

            anatomy = LatencyAnatomy()
        self.anatomy = anatomy
        anatomy.register_metrics(self.registry)
        return anatomy

    @property
    def anatomy(self):
        """The installed :class:`LatencyAnatomy`, or None."""
        return self._anatomy

    @anatomy.setter
    def anatomy(self, value) -> None:
        old = self._anatomy
        if old is not None:
            self._tx += old.transmissions - self._tx_mark
        self._tx_mark = value.transmissions if value is not None else 0
        self._anatomy = value
        self._rebind()

    @property
    def tracer(self) -> PacketTracer | None:
        """The installed :class:`PacketTracer`, or None (assigning
        rebinds the hook slots)."""
        return self._tracer

    @tracer.setter
    def tracer(self, value: PacketTracer | None) -> None:
        self._tracer = value
        self._rebind()

    # -- hook binding ------------------------------------------------------

    def hook_slots(self) -> tuple:
        """The callables for the simulator's six hook slots: inject,
        arrive, enqueue, dequeue, send and deliver (None = no call).

        Each is the cheapest callable serving every installed consumer.
        A tracer records every hook, so it takes this object's fan-out
        methods.  Without one, an anatomy's own methods serve it and
        the counters (its enqueue keeps the high-water marks, its wire
        records count the transmissions); with neither, only the
        counters' enqueue and dequeue remain.  The other counters are
        derived from totals the simulator keeps anyway.
        """
        if self._tracer is not None:
            return (
                self.on_inject, self.on_arrive, self.on_enqueue,
                self.on_dequeue, self.on_send, self.on_deliver,
            )
        anatomy = self._anatomy
        if anatomy is not None:
            return (
                anatomy.inject, None, anatomy.enqueue, anatomy.dequeue,
                None, anatomy.deliver,
            )
        return (None, None, self.on_enqueue, self.on_dequeue, None, None)

    def event_hook(self):
        """The per-event hook, or None when no tracer or recorder needs
        one (the simulator counts events itself)."""
        if self._tracer is None and self.recorder is None:
            return None
        return self.on_event

    def bind(self, sim) -> None:
        """Called by ``sim.install_probes``: start the derived counters
        and the high-water marks from where they stand."""
        if self._bound:
            if self._sim is sim:
                return
            self.unbind()
        self._sim = sim
        stats = sim.stats
        self._hop_base = [
            getattr(stats, name) - count
            for name, count in zip(_HOP_TOTALS, self._hop_base)
        ]
        frozen = self._hw_frozen
        for port in sim._ports.values():
            port.obs_hw = frozen.get((port.u, port.v), 0)
        self._bound = True

    def unbind(self) -> None:
        """Called when another object (or None) replaces these probes:
        freeze the derived counters and the high-water marks."""
        self._hw_frozen = self.link_highwater
        self._hop_base = [self._hop(i) for i in range(len(_HOP_TOTALS))]
        self._bound = False

    def _rebind(self) -> None:
        sim = self._sim
        if self._bound and sim._probes is self:
            sim.bind_probe_hooks()

    # -- counters ----------------------------------------------------------

    def _hop(self, index: int) -> int:
        if not self._bound:
            return self._hop_base[index]
        total = getattr(self._sim.stats, _HOP_TOTALS[index])
        return total - self._hop_base[index]

    @property
    def injections(self) -> int:
        """Packets handed to the simulator while installed."""
        return self._hop(0)

    @property
    def enqueues(self) -> int:
        """Packets queued on an output port while installed."""
        return self._hop(1)

    @property
    def deliveries(self) -> int:
        """Packets ejected at their destination while installed."""
        return self._hop(2)

    @property
    def arrivals(self) -> int:
        """Router arrivals (terminal or transit) while installed."""
        return self.event_counts[_ARRIVE]

    @property
    def transmissions(self) -> int:
        """Packets put on a wire while installed."""
        count = self._tx
        anatomy = self._anatomy
        if anatomy is not None:
            count += anatomy.transmissions - self._tx_mark
        return count

    @property
    def link_highwater(self) -> dict[tuple[int, int], int]:
        """Per directed link, the output-queue high-water (packets)."""
        if not self._bound:
            return dict(self._hw_frozen)
        return {
            (port.u, port.v): port.obs_hw
            for port in self._sim._ports.values() if port.obs_hw
        }

    @property
    def occupancy_highwater(self) -> int:
        """Output-queue high-water over every link (packets)."""
        return max(self.link_highwater.values(), default=0)

    # -- hooks (bound to the simulator's slots, or called on rare paths) ---

    def on_event(self, code: int, now: int) -> None:
        """Per processed event (after the simulator counted it): the
        tracer's event ring and the timeseries boundary."""
        tracer = self._tracer
        if tracer is not None:
            tracer.ring.append((now, code))
        recorder = self.recorder
        if recorder is not None and now >= recorder.next_at:
            recorder.sample(now)

    def on_inject(self, packet, now: int) -> None:
        """Packet handed to the simulator (``send``)."""
        anatomy = self._anatomy
        if anatomy is not None:
            anatomy.inject(packet, now)
        tracer = self._tracer
        if tracer is not None and tracer.traced(packet.pid):
            tracer.hop(now, "inject", packet.pid, packet.src, packet.dst)

    def on_arrive(self, node: int, packet, now: int) -> None:
        """Packet arrived at a router (terminal or transit).  Only the
        tracer records here: the anatomy charges the arrival at the
        enqueue, deliver or :meth:`on_hold` that follows it."""
        tracer = self._tracer
        if tracer is not None and tracer.traced(packet.pid):
            tracer.hop(now, "arrive", packet.pid, node, packet.dst)

    def on_hold(self, packet, now: int) -> None:
        """An arrival was parked or dropped instead of queued (rare)."""
        anatomy = self._anatomy
        if anatomy is not None:
            anatomy.arrive(packet, now)

    def on_enqueue(self, port, packet, now: int) -> None:
        """Packet queued on the output port toward its next hop."""
        anatomy = self._anatomy
        occ = port.count
        if anatomy is not None:
            anatomy.enqueue(port, packet, now)
        elif occ > port.obs_hw:
            port.obs_hw = occ
        tracer = self._tracer
        if tracer is not None and tracer.traced(packet.pid):
            tracer.hop(now, "enqueue", packet.pid, port.u, port.v, occ)

    def on_dequeue(self, port, packet, ready: int, now: int) -> None:
        """The send loop picked *packet* off its output queue."""
        anatomy = self._anatomy
        if anatomy is not None:
            anatomy.dequeue(port, packet, ready, now)
        else:
            self._tx += 1

    #: Former names of :meth:`on_enqueue` and :meth:`on_dequeue`.
    #: Nothing calls them; they stay only because the benchmark
    #: ledger's span table still lists them.
    on_queue_join = on_enqueue
    on_qos_dequeue = on_dequeue

    def on_send(self, port, packet, now: int, tail: int) -> None:
        """Packet started transmitting on a wire (bound for the tracer
        only: transmissions are counted at the dequeue)."""
        tracer = self._tracer
        if tracer is not None and tracer.traced(packet.pid):
            tracer.hop(
                now, "send", packet.pid, port.u, port.v,
                tail + port.lat - now,
                depth=port.count, credit=port.credits[packet.vc],
            )

    def on_deliver(self, packet, now: int) -> None:
        """Packet ejected at its destination."""
        anatomy = self._anatomy
        comps = None
        if anatomy is not None:
            comps = anatomy.deliver(packet, now)
        tracer = self._tracer
        if tracer is not None and tracer.traced(packet.pid):
            tracer.hop(
                now, "deliver", packet.pid, packet.dst, packet.src,
                now - packet.inject_time,
            )
            if comps is not None:
                tracer.components(
                    packet.inject_time, packet.pid, packet.dst, comps
                )

    def on_drop(self, packet, now: int) -> None:
        """Packet removed by fault machinery without delivery."""
        self.drops += 1
        anatomy = self._anatomy
        if anatomy is not None:
            anatomy.drop(packet, now)
        tracer = self._tracer
        if tracer is not None and tracer.traced(packet.pid):
            tracer.hop(now, "drop", packet.pid, packet.src, packet.dst)

    def on_credit_stall(self, port, now: int) -> None:
        """Output port went credit-blocked and armed its stall timer."""
        self.credit_stalls += 1
        tracer = self._tracer
        if tracer is not None:
            for queue in port.queues:
                if queue and tracer.traced(queue[0][1].pid):
                    tracer.hop(now, "stall", queue[0][1].pid, port.u, port.v)

    # -- wiring ------------------------------------------------------------

    def attach_sim(self, sim) -> "FabricProbes":
        """Install into *sim* and register its pull metrics.

        The fault layer is resolved dynamically at collect time via
        ``sim._fault_layer``, so a layer installed after the probes
        (the usual order in the workload runners) is still covered.
        """
        sim.install_probes(self)
        reg = self.registry
        stats = sim.stats
        reg.counter_probe("sim_packets_sent_total", lambda: stats.sent)
        reg.counter_probe("sim_packets_delivered_total", lambda: stats.delivered)
        reg.counter_probe("sim_packets_dropped_total", lambda: stats.dropped)
        reg.counter_probe("sim_credit_stalls_total", lambda: self.credit_stalls)
        for stage, probe in (
            ("inject", lambda: self.injections),
            ("enqueue", lambda: self.enqueues),
            ("transmit", lambda: self.transmissions),
            ("arrive", lambda: self.arrivals),
            ("deliver", lambda: self.deliveries),
        ):
            reg.counter_probe(
                "sim_packet_hops_total", probe, labels={"stage": stage}
            )
        for code, name in enumerate(EVENT_NAMES):
            reg.counter_probe(
                "sim_events_total",
                lambda code=code: self.event_counts[code],
                labels={"type": name},
            )
        reg.gauge_probe("sim_cycle", lambda: sim.now)
        reg.gauge_probe("sim_pending_events", lambda: sim.pending_events)
        reg.gauge_probe(
            "sim_link_events_elided", lambda: sim.link_events_elided
        )
        reg.gauge_probe("sim_inflight_packets", lambda: stats.in_flight)
        reg.gauge_probe(
            "sim_queue_highwater_packets", lambda: self.occupancy_highwater
        )
        reg.collector(self._collect_faults)
        latency = stats.latency
        if latency.sketch is not None:
            reg.histogram("sim_latency_cycles", latency.sketch)
        return self

    def _collect_faults(self, emit) -> None:
        """Fault-layer metrics, resolved dynamically (layer may be None)."""
        sim = self._sim
        layer = getattr(sim, "_fault_layer", None) if sim is not None else None
        if layer is None:
            return
        for cause, count in sorted(layer.drops.items()):
            emit(
                "fault_drops_total", "counter", count,
                labels={"cause": cause},
            )
        emit("fault_retransmits_total", "counter", layer.retransmits)

    def attach_detector(self, detector) -> "FabricProbes":
        """Register fault-detector metrics (detections, latency sketch)."""
        reg = self.registry
        reg.counter_probe(
            "fault_detections_total", lambda: detector.detections
        )
        reg.counter_probe(
            "fault_absorbed_flaps_total", lambda: detector.absorbed_flaps
        )
        reg.histogram(
            "fault_detection_latency_cycles", detector.detection_latency
        )
        return self

    def attach_migration(self, engine, directory) -> "FabricProbes":
        """Register migration-engine and page-directory metrics."""
        reg = self.registry
        reg.gauge_probe(
            "migration_inflight_pages", lambda: directory.in_flight_count
        )
        reg.counter_probe(
            "migration_pages_moved_total", lambda: engine.total_pages_moved
        )
        reg.counter_probe(
            "migration_bytes_moved_total", lambda: engine.total_bytes_moved
        )
        reg.counter_probe("pages_lost_total", lambda: len(directory.lost))
        for ruling in ("serve", "stall", "forward", "lost"):
            reg.counter_probe(
                "page_rulings_total",
                lambda r=ruling: directory.ruling_counts[r],
                labels={"ruling": ruling},
            )
        return self

    def attach_service(self, service) -> "FabricProbes":
        """Register service-level metrics (queue, shed, tenant latency)."""
        reg = self.registry
        reg.gauge_probe("service_queue_depth", lambda: len(service._queue))
        reg.gauge_probe(
            "service_outstanding_requests", lambda: service.outstanding
        )
        reg.counter_probe("service_shed_total", lambda: service.shed_total)
        reg.counter_probe("service_queued_total", lambda: service.queued_total)
        reg.counter_probe("service_timeouts_total", lambda: service.timeouts)
        reg.counter_probe("service_forwarded_total", lambda: service.requests.forwarded)
        reg.counter_probe("service_stalled_total", lambda: service.requests.stalled)

        def collect_tenants(emit):
            """Per-tenant counters and latency sketches (live label set)."""
            for name in sorted(service.tenants):
                ts = service.tenants[name]
                labels = {"tenant": name}
                emit(
                    "service_requests_submitted_total", "counter",
                    ts.submitted, labels=labels,
                )
                emit(
                    "service_requests_completed_total", "counter",
                    ts.completed, labels=labels,
                )
                emit(
                    "service_requests_shed_total", "counter",
                    ts.shed, labels=labels,
                )
                emit(
                    "service_latency_cycles", "histogram",
                    ts.sketch, labels=labels,
                )

        reg.collector(collect_tenants)

        def collect_classes(emit):
            """Per-traffic-class SLO metrics (QoS services only)."""
            if getattr(service, "_qos", None) is None:
                return
            for name, row in sorted(service.class_summary().items()):
                labels = {"tclass": name}
                emit(
                    "service_class_completed_total", "counter",
                    row["completed"], labels=labels,
                )
                emit(
                    "service_class_shed_total", "counter",
                    row["shed"], labels=labels,
                )
                emit(
                    "service_class_queued", "gauge",
                    row["queued"], labels=labels,
                )
                emit(
                    "service_class_latency_p99_cycles", "gauge",
                    row["p99"], labels=labels,
                )
                emit(
                    "service_class_latency_p50_cycles", "gauge",
                    row["p50"], labels=labels,
                )

        reg.collector(collect_classes)
        return self

    # -- finishing and summaries -------------------------------------------

    def finish(self, now: int) -> None:
        """Flush the timeseries tail window at simulated cycle *now*."""
        if self.recorder is not None:
            self.recorder.flush(now)

    def events_processed(self) -> int:
        """Total events seen while installed."""
        return sum(self.event_counts)

    def summary(self) -> dict:
        """Flat JSON-safe roll-up for report tables and artifacts."""
        top_links = sorted(
            self.link_highwater.items(), key=lambda kv: (-kv[1], kv[0])
        )[:8]
        out = {
            "events": {
                name: self.event_counts[code]
                for code, name in enumerate(EVENT_NAMES)
            },
            "events_processed": self.events_processed(),
            "credit_stalls": self.credit_stalls,
            "occupancy_highwater": self.occupancy_highwater,
            "link_highwater_top": [
                {"link": list(link), "highwater": hw} for link, hw in top_links
            ],
        }
        if self.recorder is not None:
            out["ts_rows"] = len(self.recorder.rows)
        if self.tracer is not None:
            out["trace_records"] = len(self.tracer.records)
            out["trace_dropped"] = self.tracer.dropped_records
        if self.anatomy is not None:
            out["anatomy"] = self.anatomy.summary()
        return out
