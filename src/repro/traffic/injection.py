"""Packet injection processes for synthetic-traffic experiments.

Each active node injects packets as a Bernoulli process: at every
cycle, with probability equal to the injection rate, the node creates a
packet whose destination comes from the configured traffic pattern
(paper §V: "given an injection rate of 0.6, nodes randomly inject
packets 60% of the time").  In the event-driven simulator this becomes
geometric inter-arrival gaps, which is statistically identical and far
cheaper than a per-cycle coin flip.
"""

from __future__ import annotations

import math

from repro.network.config import NetworkConfig
from repro.network.packet import Packet, PacketKind
from repro.network.simulator import NetworkSimulator
from repro.network.stats import SimStats
from repro.traffic.patterns import TrafficPattern
from repro.utils.rng import derive_rng

__all__ = ["BernoulliInjector", "run_synthetic"]


class BernoulliInjector:
    """Per-node Bernoulli packet injection driven by a traffic pattern.

    Parameters
    ----------
    sim:
        Target simulator.
    pattern:
        Destination generator (a Table III pattern).
    rate:
        Injection probability per node per cycle, in ``(0, 1]``.
    warmup, measure:
        Packets injected in ``[warmup, warmup + measure)`` are flagged
        as measured; injection stops at ``warmup + measure`` (plus an
        optional cooldown of unmeasured background traffic).
    cooldown:
        Extra cycles of unmeasured injection after the window, keeping
        the network loaded while measured packets drain.
    payload_bytes:
        Packet payload (default one cache line).
    sources:
        Restrict injecting nodes (default: every active node —
        "similar to attaching a processor to each memory node").
    tclass:
        Traffic class id stamped on every injected packet (row of the
        simulator's installed QoS table; 0 — the default class — when
        the run is classless).
    """

    #: Label of the per-source RNG streams (:func:`derive_rng`).
    stream = "inject"

    def __init__(
        self,
        sim: NetworkSimulator,
        pattern: TrafficPattern,
        rate: float,
        warmup: int = 300,
        measure: int = 1000,
        cooldown: int = 0,
        payload_bytes: int = 64,
        seed: int | None = 0,
        sources: list[int] | None = None,
        tclass: int = 0,
    ) -> None:
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        self.sim = sim
        self.pattern = pattern
        self.rate = rate
        self.warmup = warmup
        self.measure = measure
        self.cooldown = cooldown
        self.payload_bytes = payload_bytes
        self.seed = seed
        self.tclass = tclass
        self.sources = (
            list(sim.topology.active_nodes) if sources is None else list(sources)
        )
        config: NetworkConfig = sim.config
        self._size_flits = config.packet_flits(payload_bytes)
        self._stop = warmup + measure + cooldown
        #: log(1 - rate), hoisted out of the per-packet gap draw (None
        #: at rate 1, where every cycle injects).
        self._log_idle = math.log(1.0 - rate) if rate < 1.0 else None

    def _gap(self, rng) -> int:
        """Geometric inter-arrival gap matching the Bernoulli process."""
        u = rng.random()
        if self._log_idle is None:
            return 1
        return max(1, math.ceil(math.log(1.0 - u) / self._log_idle))

    def start(self) -> None:
        """Schedule every source's injection process."""
        for node in self.sources:
            self._start_source(node, derive_rng(self.seed, self.stream, node))

    def _start_source(self, node: int, rng) -> None:
        """Run *node*'s injection process: one callback, built once,
        that fires a slot and reschedules itself until the stop cycle."""
        sim = self.sim
        stop = self._stop
        gap = self._gap
        fire = self._fire

        def tick(now: int) -> None:
            fire(node, rng, now)
            t = now + gap(rng)
            if t < stop:
                sim.schedule(t, tick)

        t = gap(rng)
        if t < stop:
            sim.schedule(t, tick)

    def _fire(self, node: int, rng, now: int) -> None:
        """One injection slot of *node* at cycle *now*: send a packet."""
        packet = Packet(
            src=node,
            dst=self.pattern.destination(node, rng),
            size_flits=self._size_flits,
            payload_bytes=self.payload_bytes,
            kind=PacketKind.DATA,
            tclass=self.tclass,
            measured=self.warmup <= now < self.warmup + self.measure,
        )
        self.sim.send(packet, now)


def run_synthetic(
    topology,
    policy,
    pattern: TrafficPattern,
    rate: float,
    config: NetworkConfig | None = None,
    warmup: int = 300,
    measure: int = 1000,
    drain_limit: int = 40_000,
    seed: int | None = 0,
    payload_bytes: int = 64,
    sources: list[int] | None = None,
    link_latency=None,
    sample_free: bool = False,
    instrument=None,
) -> SimStats:
    """One synthetic-traffic simulation, start to drain.

    Returns the :class:`~repro.network.stats.SimStats` with measured
    latency/throughput.  ``drain_limit`` bounds the post-injection
    drain so saturated runs terminate (their accepted-rate < 1 then
    flags saturation).  ``sample_free`` swaps the latency/hop sample
    lists for streaming quantile sketches (identical statistics,
    bounded memory — intended for 1296-node sweeps).  ``instrument``
    (if given) is called with the freshly built simulator before any
    traffic starts — the observability layer attaches its probes here.
    """
    sim = NetworkSimulator(
        topology, policy, config, link_latency=link_latency,
        sample_free=sample_free,
    )
    if instrument is not None:
        instrument(sim)
    injector = BernoulliInjector(
        sim,
        pattern,
        rate,
        warmup=warmup,
        measure=measure,
        payload_bytes=payload_bytes,
        seed=seed,
        sources=sources,
    )
    injector.start()
    sim.run(until=warmup + measure)
    sim.run(until=warmup + measure + drain_limit)
    sim.stats.measure_cycles = measure
    return sim.stats
