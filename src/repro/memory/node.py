"""Memory-node service model: DRAM behind a banked controller.

A memory node receives request packets from the network, queues them at
its memory controller, serves them with DRAM timing, and (for reads)
injects a response packet back to the requester.  The controller is
work-conserving and tracks occupancy *per bank*: accesses to different
banks proceed in parallel (bank-level parallelism), while accesses to
the same bank serialize behind each other — enough fidelity to make
hotspot destinations a realistic bottleneck, and to let background
migration writes overlap foreground reads landing in other banks,
without simulating a full scheduler.
"""

from __future__ import annotations

from repro.memory.dram import DramModel
from repro.network.config import NetworkConfig
from repro.network.packet import Packet, PacketKind
from repro.network.simulator import NetworkSimulator

__all__ = ["MemoryNode", "MemoryNodePool"]


class MemoryNode:
    """DRAM + banked memory controller of one network node."""

    def __init__(
        self,
        node_id: int,
        sim: NetworkSimulator,
        config: NetworkConfig | None = None,
        num_banks: int = 8,
    ) -> None:
        self.node_id = node_id
        self.sim = sim
        self.config = config or sim.config
        self.dram = DramModel(self.config, num_banks=num_banks)
        self._bank_free_at = [0] * num_banks
        self.served = 0

    @property
    def busy_until(self) -> int:
        """Cycle at which the last-finishing bank goes idle."""
        return max(self._bank_free_at)

    def _serve_line(self, now: int, local_addr: int) -> int:
        """One cache-line access through its bank; returns completion."""
        bank = self.dram.bank_of(local_addr)
        latency = self.dram.access_cycles(local_addr)
        start = max(now, self._bank_free_at[bank])
        done = start + latency
        self._bank_free_at[bank] = done
        return done

    def service(
        self, packet: Packet, now: int, local_addr: int, respond: bool = True
    ) -> int:
        """Serve a request packet; returns its completion time.

        Reads trigger a response packet back to ``packet.src`` carrying
        one cache line (suppressed with ``respond=False`` for accesses
        local to the requesting socket); writes complete silently
        (write acks are covered by the unmeasured background, as in the
        paper's trace-driven setup).  DRAM energy is tallied on the
        simulator's stats.
        """
        done = self._serve_line(now, local_addr)
        self.served += 1
        self.sim.stats.dram_bits += 8 * self.config.cacheline_bytes
        if respond and packet.kind is PacketKind.READ_REQ:
            response = Packet(
                src=self.node_id,
                dst=packet.src,
                size_flits=self.config.packet_flits(self.config.cacheline_bytes),
                payload_bytes=self.config.cacheline_bytes,
                kind=PacketKind.READ_RESP,
                measured=packet.measured,
                context=packet.context,
            )
            self.sim.send(response, done)
        return done

    def service_bulk(self, now: int, local_addr: int, num_bytes: int) -> int:
        """Serve a multi-line transfer (page migration read or write).

        The transfer is issued as back-to-back cache-line bursts
        starting at ``local_addr``; lines in the same row serialize in
        their bank while rows striped across banks overlap, so bulk
        migration traffic and foreground accesses to *other* banks
        proceed in parallel.  Returns the completion time of the last
        line.
        """
        if num_bytes <= 0:
            raise ValueError(f"num_bytes must be positive, got {num_bytes}")
        line = self.config.cacheline_bytes
        done = now
        for offset in range(0, num_bytes, line):
            done = max(done, self._serve_line(now, local_addr + offset))
        self.served += 1
        self.sim.stats.dram_bits += 8 * num_bytes
        return done


class MemoryNodePool:
    """The banked DRAM controllers of one simulator, built on first use.

    Callable as ``pool(node_id)`` — the accessor the migration engine,
    the memory-request path and the trace replayer share, so every
    layer that touches a node's DRAM sees the same bank occupancy.
    """

    def __init__(self, sim: NetworkSimulator) -> None:
        self.sim = sim
        self.nodes: dict[int, MemoryNode] = {}

    def __call__(self, node_id: int) -> MemoryNode:
        node = self.nodes.get(node_id)
        if node is None:
            node = self.nodes[node_id] = MemoryNode(node_id, self.sim)
        return node
