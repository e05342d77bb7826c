"""Interference scenarios: multi-tenant traffic classes under contention.

An *interference run* puts a latency-critical foreground tenant (the
``latency`` class, low fixed rate, uniform random) on a fabric together
with an interfering tenant whose offered load is the swept axis, and
reports per-class p50/p99 latency.  With a QoS table installed
(:class:`~repro.network.qos.QoSConfig`) the foreground rides the
reserved credit partition and strict-priority arbitration; without one
(``qos=False``) the same tagged traffic shares FIFO queues and the
classes degrade together — the differential the PR-9 acceptance
criteria compare.

Three interference shapes, escalating in adversarialness:

* ``noise`` — steady bulk-class Bernoulli traffic from a fraction of
  the nodes (noisy-neighbour tenants).
* ``burst`` — ON/OFF-modulated bulk traffic aimed at a small hotspot
  set: quiet most of the period, then a burst at ``rate / duty`` peak
  (bursty hotspot tenants; same *average* offered load as ``noise``).
* ``incast`` — synchronized fan-in: every period, many sources fire a
  wave of packets at a single victim node (adversarial incast).

All interference traffic is tagged :data:`~repro.network.qos.BULK_CLASS`
even in classless runs — the tag is carried but never consulted without
an installed table, so classless runs stay bit-identical to untagged
ones while still reporting per-class latency splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.network.config import NetworkConfig
from repro.network.packet import Packet, PacketKind
from repro.network.qos import BULK_CLASS, LATENCY_CLASS, QoSConfig
from repro.network.simulator import NetworkSimulator
from repro.network.stats import SimStats, percentile
from repro.topologies.registry import make_policy
from repro.traffic.injection import BernoulliInjector
from repro.traffic.patterns import make_pattern
from repro.utils.rng import derive_rng

__all__ = [
    "INTERFERENCE_MODES",
    "BurstyInjector",
    "IncastScheduler",
    "InterferenceRunResult",
    "run_interference",
]

INTERFERENCE_MODES = ("noise", "burst", "incast")

#: Payload column prefix per traffic-class id (default table convention).
_CLASS_PREFIX = {0: "fg", 1: "bulk", 2: "bg"}


class BurstyInjector(BernoulliInjector):
    """ON/OFF-modulated Bernoulli injection toward hotspot destinations.

    The inter-arrival process is the parent's geometric stream, but a
    fire lands a packet only inside the ON window of each ``period``
    (the first ``duty`` fraction); destinations are drawn from the
    ``hotspots`` set instead of a traffic pattern.  Pass the *peak*
    rate (``average / duty``) to offer the same mean load as a steady
    injector.
    """

    def __init__(
        self,
        *args,
        period: int = 256,
        duty: float = 0.25,
        hotspots=(),
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        if not 0.0 < duty <= 1.0:
            raise ValueError(f"duty must be in (0, 1], got {duty}")
        if not hotspots:
            raise ValueError("burst mode needs a non-empty hotspot set")
        self.period = period
        self.on_cycles = max(1, int(period * duty))
        self.hotspots = list(hotspots)

    def _fire(self, node: int, rng, now: int) -> None:
        if now % self.period < self.on_cycles:
            choices = [h for h in self.hotspots if h != node]
            if choices:
                dst = choices[rng.randrange(len(choices))]
                packet = Packet(
                    src=node,
                    dst=dst,
                    size_flits=self._size_flits,
                    payload_bytes=self.payload_bytes,
                    kind=PacketKind.DATA,
                    tclass=self.tclass,
                    measured=self.warmup <= now < self.warmup + self.measure,
                )
                self.sim.send(packet, now)


class IncastScheduler:
    """Synchronized fan-in: every period, all sources fire at one victim.

    Unlike the Bernoulli injectors there is no randomness — the waves
    are the worst case by construction, and ``packets_per_wave`` sets
    the per-source offered load (``packets_per_wave / period``).
    """

    def __init__(
        self,
        sim: NetworkSimulator,
        sources,
        victim: int,
        period: int = 64,
        packets_per_wave: int = 1,
        warmup: int = 300,
        measure: int = 1000,
        payload_bytes: int = 64,
        tclass: int = BULK_CLASS,
    ) -> None:
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        self.sim = sim
        self.sources = [s for s in sources if s != victim]
        self.victim = victim
        self.period = period
        self.packets_per_wave = max(1, packets_per_wave)
        self.warmup = warmup
        self.measure = measure
        self.payload_bytes = payload_bytes
        self.tclass = tclass
        self._size_flits = sim.config.packet_flits(payload_bytes)
        self._stop = warmup + measure

    def start(self) -> None:
        self.sim.schedule(self.period, self._fire)

    def _fire(self, now: int) -> None:
        measured = self.warmup <= now < self.warmup + self.measure
        for src in self.sources:
            for _ in range(self.packets_per_wave):
                packet = Packet(
                    src=src,
                    dst=self.victim,
                    size_flits=self._size_flits,
                    payload_bytes=self.payload_bytes,
                    kind=PacketKind.DATA,
                    tclass=self.tclass,
                    measured=measured,
                )
                self.sim.send(packet, now)
        nxt = now + self.period
        if nxt < self._stop:
            self.sim.schedule(nxt, self._fire)


@dataclass
class InterferenceRunResult:
    """Everything one interference scenario produced."""

    stats: SimStats
    mode: str
    rate: float
    fg_rate: float
    qos: bool
    num_nodes: int
    run_end: int
    drained: bool
    samples: dict[int, list[int]]
    #: Installed :class:`~repro.obs.anatomy.LatencyAnatomy` when the run
    #: was launched with ``anatomy=True`` (None otherwise).
    anatomy: Any = None

    def class_latency(self) -> dict[int, dict[str, float]]:
        """Per-class ``{count, p50, p99, mean}`` over measured packets."""
        out: dict[int, dict[str, float]] = {}
        for cls, values in sorted(self.samples.items()):
            if values:
                out[cls] = {
                    "count": float(len(values)),
                    "p50": float(percentile(values, 50)),
                    "p99": float(percentile(values, 99)),
                    "mean": sum(values) / len(values),
                }
            else:
                out[cls] = {"count": 0.0, "p50": 0.0, "p99": 0.0, "mean": 0.0}
        return out

    def payload(self) -> dict[str, Any]:
        """Flat JSON-safe summary (one sweep-report row)."""
        s = self.stats
        out: dict[str, Any] = {
            "mode": self.mode,
            "qos": bool(self.qos),
            "fg_rate": self.fg_rate,
            "interference_rate": self.rate,
            "sent": s.sent,
            "delivered": s.delivered,
            "dropped": s.dropped,
            "conserved": s.in_flight == 0,
            "drained": bool(self.drained),
            "deadlock_recoveries": s.deadlock_recoveries,
            "run_end": self.run_end,
        }
        latencies = self.class_latency()
        for cls in range(3):
            prefix = _CLASS_PREFIX[cls]
            row = latencies.get(
                cls, {"count": 0.0, "p50": 0.0, "p99": 0.0, "mean": 0.0}
            )
            out[f"{prefix}_count"] = int(row["count"])
            out[f"{prefix}_p50"] = row["p50"]
            out[f"{prefix}_p99"] = row["p99"]
            out[f"{prefix}_mean"] = row["mean"]
        for cls, row in latencies.items():
            if cls not in _CLASS_PREFIX:
                out[f"cls{cls}_count"] = int(row["count"])
                out[f"cls{cls}_p99"] = row["p99"]
        fg_p99 = out["fg_p99"]
        out["p99_ratio"] = out["bulk_p99"] / fg_p99 if fg_p99 else 0.0
        if self.anatomy is not None:
            out.update(self.anatomy.payload())
        return out


def run_interference(
    topology,
    mode: str = "noise",
    rate: float = 0.2,
    fg_rate: float = 0.05,
    pattern: str = "uniform_random",
    qos: bool = True,
    classes: QoSConfig | None = None,
    config: NetworkConfig | None = None,
    warmup: int = 300,
    measure: int = 2000,
    drain_limit: int = 60_000,
    seed: int | None = 0,
    payload_bytes: int = 64,
    noise_fraction: float = 0.5,
    hotspot_count: int = 4,
    burst_period: int = 256,
    burst_duty: float = 0.25,
    incast_degree: int = 16,
    incast_period: int = 64,
    instrument=None,
    anatomy: bool = False,
) -> InterferenceRunResult:
    """One interference scenario, start to drain.

    ``rate`` is the average *per-interfering-node* offered load in all
    three modes (burst peaks at ``rate / burst_duty`` inside its ON
    window; incast converts it to packets per wave), so a sweep over
    ``rate`` compares the shapes at equal mean pressure.  ``qos=False``
    runs the identical tagged traffic without an installed class table
    — the classless baseline where foreground and bulk collapse
    together.  ``instrument`` (if given) sees the freshly built
    simulator before any traffic or the QoS table, matching the other
    workload runners.  ``anatomy=True`` installs a
    :class:`~repro.obs.anatomy.LatencyAnatomy` (into the probes the
    instrument installed, or fresh ones) and attaches it to the result
    — the ``anatomy`` experiment kind and ``repro hotspots`` ride this.
    """
    if mode not in INTERFERENCE_MODES:
        raise ValueError(
            f"unknown interference mode {mode!r}; expected one of "
            f"{INTERFERENCE_MODES}"
        )
    policy = make_policy(topology, adaptive=True)
    sim = NetworkSimulator(topology, policy, config)
    if instrument is not None:
        instrument(sim)
    anatomy_obj = None
    if anatomy:
        probes = sim._probes
        if probes is None:
            from repro.obs.probes import FabricProbes

            probes = FabricProbes().attach_sim(sim)
        anatomy_obj = probes.install_anatomy()
    if qos:
        sim.install_qos(classes if classes is not None else QoSConfig.default())

    active = sorted(topology.active_nodes)
    pick = derive_rng(seed, "interference")
    interference_seed = pick.randrange(2**32)

    foreground = BernoulliInjector(
        sim,
        make_pattern(pattern, active),
        fg_rate,
        warmup=warmup,
        measure=measure,
        payload_bytes=payload_bytes,
        seed=seed,
        tclass=LATENCY_CLASS,
    )

    if mode == "noise":
        k = max(1, int(len(active) * noise_fraction))
        sources = sorted(pick.sample(active, k))
        interferer = BernoulliInjector(
            sim,
            make_pattern("uniform_random", active),
            min(1.0, rate),
            warmup=warmup,
            measure=measure,
            payload_bytes=payload_bytes,
            seed=interference_seed,
            sources=sources,
            tclass=BULK_CLASS,
        )
    elif mode == "burst":
        k = max(1, int(len(active) * noise_fraction))
        sources = sorted(pick.sample(active, k))
        hotspots = sorted(pick.sample(active, min(hotspot_count, len(active))))
        interferer = BurstyInjector(
            sim,
            make_pattern("uniform_random", active),
            min(1.0, rate / burst_duty),
            warmup=warmup,
            measure=measure,
            payload_bytes=payload_bytes,
            seed=interference_seed,
            sources=sources,
            tclass=BULK_CLASS,
            period=burst_period,
            duty=burst_duty,
            hotspots=hotspots,
        )
    else:  # incast
        victim = pick.choice(active)
        degree = min(incast_degree, len(active) - 1)
        candidates = [n for n in active if n != victim]
        sources = sorted(pick.sample(candidates, degree))
        interferer = IncastScheduler(
            sim,
            sources,
            victim,
            period=incast_period,
            packets_per_wave=max(1, round(rate * incast_period)),
            warmup=warmup,
            measure=measure,
            payload_bytes=payload_bytes,
            tclass=BULK_CLASS,
        )

    samples: dict[int, list[int]] = {}

    def on_delivery(packet, now: int) -> None:
        if packet.measured and packet.kind is PacketKind.DATA:
            samples.setdefault(packet.tclass, []).append(
                now - packet.inject_time
            )

    sim.on_delivery(on_delivery)
    foreground.start()
    interferer.start()

    stop = warmup + measure
    sim.run(until=stop)
    sim.run(until=stop + drain_limit)
    sim.stats.measure_cycles = measure

    return InterferenceRunResult(
        stats=sim.stats,
        mode=mode,
        rate=rate,
        fg_rate=fg_rate,
        qos=qos,
        num_nodes=topology.num_nodes,
        run_end=sim.now,
        drained=sim.stats.in_flight == 0,
        samples=samples,
        anatomy=anatomy_obj,
    )
