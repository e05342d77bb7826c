"""System configuration constants (paper Table I).

All timing is expressed in network-clock cycles.  The network clock
matches the memory-node clock, 312.5 MHz for HMC-based nodes, so one
cycle is 3.2 ns — conveniently equal to the paper's per-hop SerDes
latency (1.6 ns each side).

Link width derivation: an HMC-style link runs 16 lanes at 30 Gb/s,
i.e. 480 Gb/s = 192 bytes per 3.2 ns cycle.  One flit is therefore one
cycle's worth of link transfer (192 B), and a 64 B cache-line packet
with header fits in a single flit; only large multi-line transfers need
multiple flits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["NetworkConfig", "DramTiming"]


@dataclass(frozen=True)
class DramTiming:
    """DRAM timing parameters of one memory node (Table I), in ns."""

    t_rcd: float = 12.0
    t_cl: float = 6.0
    t_rp: float = 14.0
    t_ras: float = 33.0

    def row_hit_ns(self) -> float:
        """Access latency when the row buffer already holds the row."""
        return self.t_cl

    def row_miss_ns(self) -> float:
        """Access latency on a row-buffer conflict (precharge + activate)."""
        return self.t_rp + self.t_rcd + self.t_cl

    def row_empty_ns(self) -> float:
        """Access latency when the bank is precharged (activate + CAS)."""
        return self.t_rcd + self.t_cl


@dataclass(frozen=True)
class NetworkConfig:
    """Memory-network configuration (Table I defaults).

    Attributes
    ----------
    clock_ghz:
        Network/memory-node clock (312.5 MHz for HMC nodes).
    flit_bytes:
        Link transfer per cycle (192 B = 16 lanes x 30 Gb/s x 3.2 ns).
    header_bytes:
        Packet header (addresses, routing state, CRC).
    cacheline_bytes:
        Payload granularity of memory traffic.
    serdes_cycles:
        SerDes latency per hop (3.2 ns = 1 cycle, 1.6 ns each side).
    router_cycles:
        Router pipeline latency (route computation + switch traversal).
    wire_cycles:
        Base link propagation latency.
    long_wire_extra_cycles:
        Extra latency for wires longer than ``long_wire_grid_units`` on
        the 2D placement grid (paper: one extra hop latency per ten
        grid units of wire).
    long_wire_grid_units:
        Grid-distance threshold for the long-wire penalty.
    buffer_packets:
        Input-buffer capacity per (port, virtual channel), in packets;
        this is also the credit count of each link VC.  The number of
        VCs per port comes from the routing policy's ``num_vcs``.
    deadlock_timeout_cycles:
        Credit-stall duration after which a link may claim one of the
        downstream router's reserve buffer slots (escape-buffer
        deadlock recovery; recoveries are counted in the run's stats).
    reserve_slots:
        Reserve buffer slots per link for deadlock recovery.
    emergency_stall_threshold:
        After this many *consecutive* stall timeouts in which a link
        stayed credit-blocked with every reserve slot already loaned
        out, the recovery may exceed the reserve bound (modeling
        router-local elastic overflow) to break a persistent cyclic
        stall.  ``0`` (default) disables escalation, preserving the
        hard ``buffer_packets + reserve_slots`` bound; live
        reconfiguration scenarios enable it because the transition
        window can drive a saturated network into cycles the bounded
        reserve cannot undo.
    network_pj_per_bit_hop:
        Dynamic network energy (5 pJ/bit/hop).
    dram_pj_per_bit:
        DRAM read/write energy (12 pJ/bit).
    node_background_pj_per_cycle:
        Per-active-node background dynamic energy (clock trees, idle
        router/SerDes activity, refresh logic) — the component that
        power gating saves in the paper's Figure 9(b) evaluation.  The
        2000 pJ/cycle default is 0.625 W per node, conservative against
        the several watts of real HMC link+SerDes idle power.
        Used only by the power-management experiments; the Figure 12
        comparisons stay pure 5 pJ/bit/hop as in Table I.

    Table I's CPU-side channel parameters (4 sockets, 256 lanes at
    30 Gb/s) are not modelled: the simulator injects at memory nodes,
    mirroring the paper's synthetic-traffic methodology.
    """

    clock_ghz: float = 0.3125
    flit_bytes: int = 192
    header_bytes: int = 16
    cacheline_bytes: int = 64
    serdes_cycles: int = 1
    router_cycles: int = 2
    wire_cycles: int = 1
    long_wire_extra_cycles: int = 1
    long_wire_grid_units: int = 10
    buffer_packets: int = 8
    deadlock_timeout_cycles: int = 64
    reserve_slots: int = 4
    emergency_stall_threshold: int = 0
    network_pj_per_bit_hop: float = 5.0
    dram_pj_per_bit: float = 12.0
    node_background_pj_per_cycle: float = 2000.0
    dram: DramTiming = field(default_factory=DramTiming)

    @property
    def cycle_ns(self) -> float:
        """Nanoseconds per network cycle."""
        return 1.0 / self.clock_ghz

    def cycles_from_ns(self, ns: float) -> int:
        """Round a latency in ns up to whole cycles."""
        return max(1, math.ceil(ns / self.cycle_ns - 1e-9))

    def packet_flits(self, payload_bytes: int) -> int:
        """Flits needed for a packet with *payload_bytes* of data."""
        total = payload_bytes + self.header_bytes
        return max(1, -(-total // self.flit_bytes))

    def packet_bits(self, payload_bytes: int) -> int:
        """Bits actually transferred for a packet (energy accounting)."""
        return 8 * (payload_bytes + self.header_bytes)

    def dram_access_cycles(self, row_hit: bool) -> int:
        """DRAM service latency in network cycles."""
        ns = self.dram.row_hit_ns() if row_hit else self.dram.row_miss_ns()
        return self.cycles_from_ns(ns)
