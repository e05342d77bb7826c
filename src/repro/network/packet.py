"""Packets traversing the memory network.

A packet is the simulator's unit of routing and buffering; flit-level
serialization is modeled as link occupancy time (a packet of ``size``
flits holds its link for ``size`` cycles).  This packet-granularity
virtual cut-through keeps thousand-node simulations tractable while
preserving the queueing behaviour that determines latency and
saturation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

__all__ = ["Packet", "PacketKind"]

class PacketKind(str, Enum):
    """What a packet carries; determines size and memory-side behaviour."""

    DATA = "data"  # generic synthetic-traffic packet
    READ_REQ = "read_req"
    READ_RESP = "read_resp"
    WRITE_REQ = "write_req"
    WRITE_ACK = "write_ack"
    MIG_READ = "mig_read"  # migration pull request (new owner -> old owner)
    MIG_DATA = "mig_data"  # migrated page chunk (old owner -> new owner)


@dataclass(slots=True)
class Packet:
    """One network packet.

    ``commit`` and ``fallback_md`` carry the greedy protocol's
    per-packet header state: the two-hop commit target (``-1``: none)
    and the ``MD`` recorded at space-0 ring fallback entry (``None``:
    greedy mode).  Plain ints and a float, so packets that take the
    same decision never share mutable state.  ``context`` is an opaque
    slot for higher layers (e.g. the trace-driven runner ties responses
    back to requests through it).  Slotted: the simulator reads and
    writes a few fields of every packet at every hop.
    """

    src: int
    dst: int
    size_flits: int = 1
    payload_bytes: int = 64
    kind: PacketKind = PacketKind.DATA
    #: Traffic class id (row of the installed QoS class table); 0 is
    #: the default class, and without an installed table the field is
    #: carried but never consulted.
    tclass: int = 0
    vc: int = 0
    inject_time: int = 0
    measured: bool = True
    #: Set by :meth:`NetworkSimulator.send`; -1 until the packet is sent.
    pid: int = -1
    hops: int = 0
    fallback_hops: int = 0
    arrive_time: int | None = None
    commit: int = -1
    fallback_md: float | None = None
    context: Any = None
    #: Observability cache: the latency anatomy parks this packet's
    #: component accumulators here (set at inject, cleared at
    #: deliver/drop) so its per-hook lookup is one attribute load.
    #: The simulator itself never reads it.
    obs_state: Any = None

    def reset_route(self) -> None:
        """Drop the routing state (the packet re-enters the network)."""
        self.commit = -1
        self.fallback_md = None

    @property
    def latency(self) -> int:
        """End-to-end latency in cycles (valid after delivery)."""
        if self.arrive_time is None:
            raise ValueError(f"packet {self.pid} has not been delivered")
        return self.arrive_time - self.inject_time

    def __repr__(self) -> str:
        return (
            f"Packet(#{self.pid} {self.kind.value} {self.src}->{self.dst} "
            f"vc={self.vc} size={self.size_flits})"
        )
