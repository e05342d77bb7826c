"""Closed-loop trace-driven workload simulation (paper §V–VI).

Four CPU sockets attach to four spread-out memory nodes (the paper
attaches processors to edge nodes; any subset is allowed).  Each socket
replays its share of the workload trace with a bounded number of
outstanding memory requests (its memory-level parallelism window) — a
request issues when both its trace timestamp has arrived and a window
slot is free, so network latency feeds back into runtime exactly the
way it throttles a real core cluster.

Reads travel as one-flit requests and return a cache line; writes
carry a cache line to the destination and complete at DRAM service.
Per-run outputs: runtime, average read latency, delivered operation
throughput (the paper's Figure 12a metric, normalized to DM), and
dynamic energy split into network and DRAM parts (Figure 12b).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.memory.address import AddressMapper
from repro.memory.node import MemoryNodePool
from repro.memory.requests import REQUEST_HEADER_BYTES
from repro.network.config import NetworkConfig
from repro.network.packet import Packet, PacketKind
from repro.network.simulator import NetworkSimulator
from repro.network.stats import SimStats
from repro.workloads.trace import WorkloadTrace

__all__ = ["WorkloadResult", "run_workload", "pick_socket_nodes"]


@dataclass
class WorkloadResult:
    """Outcome of one trace-driven run."""

    workload: str
    topology: str
    runtime_cycles: int = 0
    operations: int = 0
    read_latency_sum: float = 0.0
    reads_completed: int = 0
    energy: EnergyBreakdown | None = None
    stats: SimStats | None = None
    instructions: float = 0.0

    @property
    def throughput_ops_per_kcycle(self) -> float:
        """Completed memory operations per thousand cycles."""
        if not self.runtime_cycles:
            return 0.0
        return 1000.0 * self.operations / self.runtime_cycles

    @property
    def ipc(self) -> float:
        """Instructions per network cycle (relative-throughput proxy)."""
        if not self.runtime_cycles:
            return 0.0
        return self.instructions / self.runtime_cycles

    @property
    def avg_read_latency(self) -> float:
        if not self.reads_completed:
            return 0.0
        return self.read_latency_sum / self.reads_completed

    def edp(self, config: NetworkConfig | None = None) -> float:
        """Energy-delay product in pJ*ns (Figure 9b metric)."""
        cfg = config or NetworkConfig()
        if self.energy is None:
            raise ValueError("run has no energy accounting")
        return self.energy.edp(self.runtime_cycles, cfg.cycle_ns)


def pick_socket_nodes(active_nodes: list[int], sockets: int = 4) -> list[int]:
    """Spread socket attachment points evenly over the active nodes."""
    n = len(active_nodes)
    if n < sockets:
        return list(active_nodes)
    return [active_nodes[(i * n) // sockets] for i in range(sockets)]


class _SocketReplayer:
    """Replays one socket's trace slice with an MLP window."""

    def __init__(
        self,
        runner: "_RunContext",
        socket_node: int,
        entries: list,
        mlp: int,
    ) -> None:
        self.runner = runner
        self.node = socket_node
        self.entries = entries
        self.next_index = 0
        self.outstanding = 0
        self.mlp = mlp

    def try_issue(self, now: int) -> None:
        """Issue trace entries whose time has come while slots remain."""
        runner = self.runner
        sim = runner.sim
        while (
            self.outstanding < self.mlp and self.next_index < len(self.entries)
        ):
            access = self.entries[self.next_index]
            if access.cycle > now:
                sim.schedule(access.cycle, lambda t, s=self: s.try_issue(t))
                return
            self.next_index += 1
            dst = runner.mapper.node_of(access.addr)
            if dst == self.node:
                # Local access: served by the attached node, no network.
                runner.complete_local(self, access, now)
                continue
            self.outstanding += 1
            kind = PacketKind.WRITE_REQ if access.is_write else PacketKind.READ_REQ
            payload = (
                runner.config.cacheline_bytes if access.is_write else REQUEST_HEADER_BYTES
            )
            packet = Packet(
                src=self.node,
                dst=dst,
                size_flits=runner.config.packet_flits(payload),
                payload_bytes=payload,
                kind=kind,
                context=(self, access, now),
            )
            sim.send(packet, now)

    def complete(self, issue_time: int, now: int, was_read: bool) -> None:
        self.outstanding -= 1
        self.runner.record_completion(issue_time, now, was_read)
        self.try_issue(now)


class _RunContext:
    """Shared state of one workload run."""

    def __init__(self, sim, mapper, config, result):
        self.sim = sim
        self.mapper = mapper
        self.config = config
        self.result = result
        self.memory_node = MemoryNodePool(sim)

    def record_completion(self, issue_time: int, now: int, was_read: bool) -> None:
        self.result.operations += 1
        if was_read:
            self.result.read_latency_sum += now - issue_time
            self.result.reads_completed += 1
        self.result.runtime_cycles = max(self.result.runtime_cycles, now)

    def complete_local(self, socket, access, now: int) -> None:
        """Socket-local access: DRAM service only."""
        node = self.memory_node(socket.node)
        done = node.service(
            Packet(
                src=socket.node,
                dst=socket.node,
                kind=PacketKind.WRITE_REQ if access.is_write else PacketKind.READ_REQ,
            ),
            now,
            self.mapper.local_offset(access.addr),
            respond=False,
        )
        self.record_completion(now, done, not access.is_write)


def run_workload(
    topology,
    policy,
    trace: WorkloadTrace,
    config: NetworkConfig | None = None,
    sockets: int = 4,
    mlp: int = 8,
    link_latency=None,
    max_cycles: int = 20_000_000,
) -> WorkloadResult:
    """Replay *trace* on (topology, policy); returns the run's metrics."""
    cfg = config or NetworkConfig()
    sim = NetworkSimulator(topology, policy, cfg, link_latency=link_latency)
    active = list(topology.active_nodes)
    mapper = AddressMapper(active)
    result = WorkloadResult(
        workload=trace.workload,
        topology=getattr(topology, "name", type(topology).__name__),
        instructions=trace.instructions,
    )
    ctx = _RunContext(sim, mapper, cfg, result)
    socket_nodes = pick_socket_nodes(active, sockets)

    # Round-robin the trace across sockets, preserving timestamps.
    slices: list[list] = [[] for _ in socket_nodes]
    for i, access in enumerate(trace.accesses):
        slices[i % len(socket_nodes)].append(access)
    replayers = [
        _SocketReplayer(ctx, node, entries, mlp)
        for node, entries in zip(socket_nodes, slices)
    ]

    def on_delivery(packet: Packet, now: int) -> None:
        if packet.kind in (PacketKind.READ_REQ, PacketKind.WRITE_REQ):
            socket, access, issue_time = packet.context
            node = ctx.memory_node(packet.dst)
            done = node.service(packet, now, mapper.local_offset(access.addr))
            if packet.kind is PacketKind.WRITE_REQ:
                # Posted write completes at DRAM service time.
                sim.schedule(
                    done,
                    lambda t, s=socket, it=issue_time: s.complete(it, t, False),
                )
        elif packet.kind is PacketKind.READ_RESP:
            socket, access, issue_time = packet.context
            socket.complete(issue_time, now, True)

    sim.on_delivery(on_delivery)
    for replayer in replayers:
        sim.schedule(0, lambda t, s=replayer: s.try_issue(t))
    sim.run(until=max_cycles)
    remaining = sum(len(r.entries) - r.next_index for r in replayers)
    outstanding = sum(r.outstanding for r in replayers)
    if remaining or outstanding:
        raise RuntimeError(
            f"workload run did not complete: {remaining} unissued, "
            f"{outstanding} outstanding after {max_cycles} cycles"
        )
    sim.stats.measure_cycles = max(1, result.runtime_cycles)
    result.stats = sim.stats
    result.energy = EnergyModel(cfg).from_stats(sim.stats)
    return result
