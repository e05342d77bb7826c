"""Churn scenarios: elastic reconfiguration under live traffic.

A *churn scenario* runs synthetic traffic on a String Figure network
while nodes power off and on mid-flight through the online
reconfiguration pipeline (:mod:`repro.network.elastic`).  Two ways to
drive the churn:

* **Scripted schedules** (:class:`ChurnSchedule`) — gate/wake ops
  (:mod:`repro.ops`) at fixed times, e.g. one gate-off/wake cycle or a
  periodic duty cycle.
* **Utilization-driven** (:class:`UtilizationController`) — a periodic
  controller samples delivered throughput per active node and gates a
  step of nodes when the network is underutilized (waking them back
  when utilization climbs), under the power manager's reconfiguration
  granularity.  This is the paper's §III-C power-management story run
  closed-loop.

Traffic comes from :class:`ChurnInjector`, a churn-aware Bernoulli
injector: sources stop injecting while they are gated and re-draw
destinations that are currently unusable, so traffic tracks the elastic
network exactly the way processors tracking memory hotplug would.

:func:`run_churn` builds the stack with :func:`repro.fabric.build_fabric`,
runs the scenario and returns a :class:`ChurnResult` whose
:meth:`~ChurnResult.payload` is flat and JSON-safe — the experiment
engine's ``churn`` task kind is a thin wrapper around it, which is what
makes churn sweeps parallel and cacheable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.topology import StringFigureTopology
from repro.fabric import Fabric, build_fabric
from repro.network.elastic import (
    LiveReconfigEvent,
    LiveReconfigurator,
    delivery_book,
    disturbance_metrics,
    window_series,
)
from repro.network.packet import Packet, PacketKind
from repro.network.stats import SimStats
from repro.ops import Op, apply
from repro.ops import schedule as schedule_ops
from repro.traffic.injection import BernoulliInjector
from repro.traffic.patterns import make_pattern

__all__ = [
    "ChurnSchedule",
    "ChurnInjector",
    "UtilizationController",
    "ChurnResult",
    "run_churn",
]

#: Destination draws per injection before a source gives the slot up.
MAX_REDRAWS = 64


@dataclass
class ChurnSchedule:
    """A time-ordered list of gate/wake (or unmount/mount) ops.

    Victim counts can be given as fractions; victims are chosen when
    the op runs, from the then-current network.  A wake with no nodes
    wakes every gated node, in gate order.
    """

    ops: list[Op] = field(default_factory=list)

    @classmethod
    def cycle(cls, gate_at: int, wake_at: int, fraction: float) -> "ChurnSchedule":
        """One gate-off of *fraction* of the nodes, then one full wake."""
        if wake_at <= gate_at:
            raise ValueError("wake_at must come after gate_at")
        return cls([Op(gate_at, "gate_off", fraction=fraction), Op(wake_at, "gate_on")])

    @classmethod
    def periodic(
        cls,
        start: int,
        period: int,
        duty: float,
        fraction: float,
        cycles: int,
    ) -> "ChurnSchedule":
        """*cycles* gate/wake rounds: gated for ``duty`` of each period."""
        if not 0.0 < duty < 1.0:
            raise ValueError(f"duty must be in (0, 1), got {duty}")
        ops: list[Op] = []
        for i in range(cycles):
            t0 = start + i * period
            ops.append(Op(t0, "gate_off", fraction=fraction))
            ops.append(Op(t0 + int(duty * period), "gate_on"))
        return cls(ops)


class ChurnInjector(BernoulliInjector):
    """Bernoulli injection that tracks the elastic network.

    Every source keeps its injection clock running, but a gated (or
    draining/revalidating) source skips its injections, and drawn
    destinations that are currently unusable are re-drawn — so no
    packet is ever addressed to a node whose links are about to power
    down.  All redraws come from the same per-node RNG stream, keeping
    runs bit-deterministic.
    """

    def __init__(
        self,
        *args,
        reconfig: LiveReconfigurator | None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.reconfig = reconfig
        self.skipped_sources = 0
        self.redraws = 0

    # Availability predicates — subclasses override these to track a
    # different notion of "usable" (e.g. the fault subsystem's
    # physical-vs-detected knowledge) without re-implementing the
    # injection loop.

    def _usable_source(self, node: int) -> bool:
        return self.reconfig is None or self.reconfig.usable(node)

    def _usable_dest(self, node: int) -> bool:
        return self.reconfig is None or self.reconfig.usable(node)

    def _draw_destination(self, node: int, rng) -> int | None:
        for _ in range(MAX_REDRAWS):
            dst = self.pattern.destination(node, rng)
            if dst != node and self._usable_dest(dst):
                return dst
            self.redraws += 1
        return None

    def _fire(self, node: int, rng, now: int) -> None:
        if not self._usable_source(node):
            self.skipped_sources += 1
            return
        dst = self._draw_destination(node, rng)
        if dst is not None:
            self.sim.send(
                Packet(
                    src=node,
                    dst=dst,
                    size_flits=self._size_flits,
                    payload_bytes=self.payload_bytes,
                    kind=PacketKind.DATA,
                    measured=self.warmup <= now < self.warmup + self.measure,
                ),
                now,
            )


class UtilizationController:
    """Closed-loop power management driven by delivered throughput.

    Every ``interval`` cycles the controller computes utilization as
    delivered packets per active node per cycle over the last interval.
    Below ``low_util`` it gates ``gate_step`` well-spaced victims (never
    dropping under ``min_active_fraction`` of the full network); above
    ``high_util`` it wakes the most recently gated batch of the
    fabric's gated record.  Both are ops through :func:`repro.ops.apply`;
    they respect the power manager's reconfiguration granularity and
    never overlap a reconfiguration already in flight.
    """

    def __init__(
        self,
        fabric: Fabric,
        interval: int = 2000,
        low_util: float = 0.01,
        high_util: float = 0.05,
        gate_step: int = 2,
        min_active_fraction: float = 0.5,
        stop_at: int | None = None,
    ) -> None:
        self.fabric = fabric
        self.live = fabric.live
        self.interval = interval
        self.low_util = low_util
        self.high_util = high_util
        self.gate_step = gate_step
        self.min_active_fraction = min_active_fraction
        self.stop_at = stop_at
        self.decisions: list[dict[str, Any]] = []
        self._last_delivered = 0

    def start(self) -> None:
        self.live.sim.schedule(self.interval, self._tick)

    def _tick(self, now: int) -> None:
        sim = self.live.sim
        if self.stop_at is not None and now >= self.stop_at:
            return
        delivered = sim.stats.delivered
        delta = delivered - self._last_delivered
        self._last_delivered = delivered
        topo = self.live.manager.topology
        active = len(topo.active_nodes)
        util = delta / (active * self.interval) if active else 0.0
        action = self._decide(now, util, active, topo.num_nodes)
        self.decisions.append(
            {"time": now, "utilization": util, "active": active, "action": action}
        )
        sim.schedule(now + self.interval, self._tick)

    def _decide(self, now: int, util: float, active: int, total: int) -> str:
        if self.live.pending_operations:
            return "busy"
        power = self.live.power
        if power is not None and not power.can_reconfigure(now * self.live.sim.config.cycle_ns):
            return "granularity"
        if util < self.low_util:
            floor = int(total * self.min_active_fraction)
            room = active - floor
            if room <= 0:
                return "at_floor"
            reply = apply(self.fabric, Op(now, "gate_off", count=min(self.gate_step, room)))
            if not reply["ok"]:
                return "no_candidates"
            return f"gate_off:{len(reply['nodes'])}"
        if util > self.high_util and self.fabric.gated:
            batch = self.fabric.gated[-1]
            apply(self.fabric, Op(now, "gate_on", nodes=batch))
            return f"gate_on:{len(batch)}"
        return "hold"


@dataclass
class ChurnResult:
    """Everything one churn run produced."""

    stats: SimStats
    events: list[LiveReconfigEvent]
    disturbances: list[dict[str, Any]]
    series: list[dict[str, Any]]
    controller_log: list[dict[str, Any]]
    num_nodes: int
    min_active_nodes: int
    final_active_nodes: int

    def payload(self) -> dict[str, Any]:
        """Flat JSON-safe metrics (experiment-engine task payload)."""
        stats = self.stats
        recoveries = [d["recovery_cycles"] for d in self.disturbances if d["recovered"]]
        return {
            "sent": stats.sent,
            "delivered": stats.delivered,
            "in_flight": stats.in_flight,
            "injected": stats.injected,
            "measured_delivered": stats.measured_delivered,
            "avg_latency": stats.avg_latency,
            "p95_latency": stats.latency.percentile(95),
            "avg_hops": stats.avg_hops,
            "accepted_rate": stats.accepted_rate,
            "fallback_hops": stats.fallback_hops,
            "deadlock_recoveries": stats.deadlock_recoveries,
            "emergency_loans": stats.emergency_loans,
            "num_events": len(self.events),
            "parked_total": sum(e.parked_packets for e in self.events),
            "park_cycle_sum": sum(e.park_cycle_sum for e in self.events),
            "rerouted_total": sum(e.rerouted_packets for e in self.events),
            "events": self.disturbances,
            "num_nodes": self.num_nodes,
            "min_active_nodes": self.min_active_nodes,
            "final_active_nodes": self.final_active_nodes,
            "all_recovered": (
                all(d["recovered"] for d in self.disturbances) if self.disturbances else True
            ),
            "max_peak_ratio": max((d["peak_ratio"] for d in self.disturbances), default=0.0),
            "max_recovery_cycles": max(recoveries, default=0),
            "mean_recovery_cycles": (sum(recoveries) / len(recoveries) if recoveries else 0.0),
            "controller_decisions": len(self.controller_log),
        }


def run_churn(
    topology: StringFigureTopology,
    pattern: str = "uniform_random",
    rate: float = 0.2,
    schedule: ChurnSchedule | None = None,
    controller_params: dict[str, Any] | None = None,
    warmup: int = 300,
    measure: int = 2000,
    drain_limit: int = 40_000,
    seed: int | None = 0,
    payload_bytes: int = 64,
    window_cycles: int = 200,
    granularity_ns: float | None = None,
    instrument=None,
) -> ChurnResult:
    """One churn scenario, start to full drain.

    Reconfiguration mutates the topology and routing tables, so callers
    must pass a *fresh* topology (never one of the experiment engine's
    memoized instances).  Injection stops at ``warmup + measure``;
    the drain phase then lets every in-flight packet deliver, which is
    what makes the conservation invariant (``sent == delivered``)
    checkable at the end of every run.  ``granularity_ns`` overrides
    the power manager's reconfiguration granularity, which the
    utilization controller respects.
    """
    fabric = build_fabric(topology, instrument=instrument, granularity_ns=granularity_ns)
    sim, live = fabric.sim, fabric.live
    book = delivery_book(sim, window_cycles)
    traffic = make_pattern(pattern, topology.active_nodes)
    injector = ChurnInjector(
        sim,
        traffic,
        rate,
        warmup=warmup,
        measure=measure,
        payload_bytes=payload_bytes,
        seed=seed,
        reconfig=live,
    )
    injector.start()

    if schedule is not None:
        schedule_ops(fabric, schedule.ops)
    controller = None
    if controller_params is not None:
        params = dict(controller_params)
        params.setdefault("stop_at", warmup + measure)
        controller = UtilizationController(fabric, **params)
        controller.start()

    initial_active = len(topology.active_nodes)
    sim.run(until=warmup + measure)
    sim.run(until=warmup + measure + drain_limit)
    sim.stats.measure_cycles = measure

    active = initial_active
    min_active = initial_active
    for event in live.events:
        if event.kind in ("gate_off", "unmount"):
            active -= len(event.nodes)
        else:
            active += len(event.nodes)
        min_active = min(min_active, active)
    disturbances = [
        {
            "kind": event.kind,
            "num_nodes": len(event.nodes),
            "t_request": event.t_request,
            "drain_cycles": event.drain_cycles,
            "block_cycles": event.block_cycles,
            "parked_packets": event.parked_packets,
            "rerouted_packets": event.rerouted_packets,
            **disturbance_metrics(book, window_cycles, event.t_request, event.t_unblocked),
        }
        for event in live.events
    ]
    return ChurnResult(
        stats=sim.stats,
        events=live.events,
        disturbances=disturbances,
        series=window_series(book, window_cycles),
        controller_log=controller.decisions if controller else [],
        num_nodes=topology.num_nodes,
        min_active_nodes=min_active,
        final_active_nodes=len(topology.active_nodes),
    )
