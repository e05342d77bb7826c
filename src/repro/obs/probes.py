"""``FabricProbes``: the object the stack accepts via ``install_probes``.

One probes instance composes the three observability pieces — a
:class:`~repro.obs.registry.MetricsRegistry`, an optional
:class:`~repro.obs.timeseries.TimeSeriesRecorder`, and an optional
:class:`~repro.obs.tracer.PacketTracer` — and exposes the narrow
callback surface the simulator hot paths invoke behind their single
``is None`` tests:

* ``on_event(code, now)`` — every processed event (the hottest
  hook: an int increment, a ring append, and the timeseries boundary
  compare);
* ``on_inject`` / ``on_arrive`` / ``on_enqueue`` / ``on_send`` /
  ``on_deliver`` / ``on_drop`` / ``on_credit_stall`` — packet
  lifecycle points;
* ``on_queue_join`` / ``on_dequeue`` / ``on_qos_dequeue`` — the
  queue-residency endpoints (and the QoS arbiter's pick), consumed by
  the optional :class:`~repro.obs.anatomy.LatencyAnatomy` delay
  decomposition behind one more ``is None`` test.

Everything else is **pull**: counters the layers already keep (fault
drops, in-flight pages, tenant sketches) are registered as probes or
collectors resolved at sample/scrape time, so instrumentation adds no
writes to those paths at all.  Probes never call ``schedule`` and
never allocate sequence numbers, which is what keeps an instrumented
run's ``SimStats`` bit-identical (see the differential suite in
``tests/obs``).
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry
from repro.obs.timeseries import TimeSeriesRecorder
from repro.obs.tracer import EVENT_NAMES, PacketTracer

__all__ = ["FabricProbes"]


class FabricProbes:
    """Observability probes for one simulator (and the stack above it)."""

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        recorder: TimeSeriesRecorder | None = None,
        tracer: PacketTracer | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = recorder
        self.tracer = tracer
        #: Heap events processed while installed, indexed by event code.
        self.event_counts = [0] * len(EVENT_NAMES)
        self.injections = 0
        self.arrivals = 0
        self.enqueues = 0
        self.transmissions = 0
        self.deliveries = 0
        self.drops = 0
        self.credit_stalls = 0
        #: Global and per-directed-link output-queue high-water (packets).
        self.occupancy_highwater = 0
        self.link_highwater: dict[tuple[int, int], int] = {}
        #: Installed :class:`~repro.obs.anatomy.LatencyAnatomy` (None =
        #: no delay decomposition; the extra hooks cost one test each).
        #: Assigning rebinds the queue hooks — see the property below.
        self._anatomy = None
        self._sim = None

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
        # The three queue hooks exist solely for the anatomy, so while
        # one is installed they bind straight to its methods (instance
        # attributes shadow the guarded class methods below) — one
        # Python call per hop instead of two on the hottest probe path.
        self._anatomy = value
        if value is None:
            for name in ("on_queue_join", "on_dequeue", "on_qos_dequeue"):
                self.__dict__.pop(name, None)
        else:
            self.on_queue_join = value.queue_join
            self.on_dequeue = value.dequeue  # qos defaults False
            self.on_qos_dequeue = value.qos_dequeue

    # -- hot-path hooks (called by NetworkSimulator when installed) --------

    def on_event(self, code: int, now: int) -> None:
        """Per processed event: count, ring, timeseries boundary."""
        self.event_counts[code] += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.ring.append((now, code))
        recorder = self.recorder
        if recorder is not None and now >= recorder.next_at:
            recorder.sample(now)

    def on_inject(self, packet, now: int) -> None:
        """Packet handed to the simulator (``send``)."""
        self.injections += 1
        anatomy = self._anatomy
        if anatomy is not None:
            anatomy.inject(packet, now)
        tracer = self.tracer
        if tracer is not None and tracer.traced(packet.pid):
            tracer.hop(now, "inject", packet.pid, packet.src, packet.dst)

    def on_arrive(self, node: int, packet, now: int) -> None:
        """Packet arrived at a router (terminal or transit)."""
        self.arrivals += 1
        anatomy = self._anatomy
        if anatomy is not None:
            anatomy.arrive(packet, now)
        tracer = self.tracer
        if tracer is not None and tracer.traced(packet.pid):
            tracer.hop(now, "arrive", packet.pid, node, packet.dst)

    def on_enqueue(self, node: int, nxt: int, packet, port, now: int) -> None:
        """Packet queued on the output port toward its next hop."""
        self.enqueues += 1
        occ = port.count
        if occ > self.occupancy_highwater:
            self.occupancy_highwater = occ
        link = (node, nxt)
        hw = self.link_highwater
        if occ > hw.get(link, 0):
            hw[link] = occ
        tracer = self.tracer
        if tracer is not None and tracer.traced(packet.pid):
            tracer.hop(now, "enqueue", packet.pid, node, nxt, occ)

    def on_send(self, port, packet, now: int, tail: int) -> None:
        """Packet started transmitting on a wire.

        The anatomy needs no hook here: the dequeue hook fires on the
        same transmission event and ``tail`` is deterministic from it
        (``now + size_flits``), so its send half is folded in there.
        """
        self.transmissions += 1
        tracer = self.tracer
        if tracer is not None and tracer.traced(packet.pid):
            tracer.hop(
                now, "send", packet.pid, port.u, port.v,
                tail + port.lat - now,
                depth=port.count, credit=port.credits[packet.vc],
            )

    def on_deliver(self, packet, now: int) -> None:
        """Packet ejected at its destination."""
        self.deliveries += 1
        anatomy = self._anatomy
        comps = None
        if anatomy is not None:
            comps = anatomy.deliver(packet, now)
        tracer = self.tracer
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
        tracer = self.tracer
        if tracer is not None and tracer.traced(packet.pid):
            tracer.hop(now, "drop", packet.pid, packet.src, packet.dst)

    def on_credit_stall(self, port, now: int) -> None:
        """Output port went credit-blocked and armed its stall timer."""
        self.credit_stalls += 1
        tracer = self.tracer
        if tracer is not None:
            for queue in port.queues:
                if queue and tracer.traced(queue[0][1].pid):
                    tracer.hop(now, "stall", queue[0][1].pid, port.u, port.v)

    def on_queue_join(self, port, packet, ready: int, now: int) -> None:
        """Packet entered an output queue; head-ready at *ready*."""
        anatomy = self._anatomy
        if anatomy is not None:
            anatomy.queue_join(port, packet, ready, now)

    def on_dequeue(self, port, packet, ready: int, now: int) -> None:
        """Classless arbitration picked *packet* off its output queue."""
        anatomy = self._anatomy
        if anatomy is not None:
            anatomy.dequeue(port, packet, ready, now, False)

    def on_qos_dequeue(self, port, packet, ready: int, now: int) -> None:
        """The QoS arbiter picked *packet* (priority bands + DRR)."""
        anatomy = self._anatomy
        if anatomy is not None:
            anatomy.dequeue(port, packet, ready, now, True)

    # -- wiring ------------------------------------------------------------

    def attach_sim(self, sim) -> "FabricProbes":
        """Install into *sim* and register its pull metrics.

        The fault layer is resolved dynamically at collect time via
        ``sim._fault_layer``, so a layer installed after the probes
        (the usual order in the workload runners) is still covered.
        """
        sim.install_probes(self)
        self._sim = sim
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
        reg.counter_probe("service_forwarded_total", lambda: service.forwarded)
        reg.counter_probe("service_stalled_total", lambda: service.stalled)

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
