"""Discrete-event memory-network simulator substrate.

Stands in for the paper's RTL (SystemVerilog/PyMTL) simulation: packet-
granularity virtual cut-through with per-VC credits, flit-accurate link
serialization, SerDes and wire latency, adaptive-routing port counters,
and escape-buffer deadlock recovery.
"""

from repro.network.config import DramTiming, NetworkConfig
from repro.network.elastic import (
    LiveReconfigEvent,
    LiveReconfigurator,
    WindowedLatencyProbe,
    disturbance_metrics,
)
from repro.network.packet import Packet, PacketKind
from repro.network.policies import GreedyPolicy, MinimalPolicy, RoutingPolicy
from repro.network.simulator import NetworkSimulator, zero_load_latency
from repro.network.stats import LatencyAccumulator, SimStats

__all__ = [
    "DramTiming",
    "GreedyPolicy",
    "LatencyAccumulator",
    "LiveReconfigEvent",
    "LiveReconfigurator",
    "MinimalPolicy",
    "NetworkConfig",
    "NetworkSimulator",
    "Packet",
    "PacketKind",
    "RoutingPolicy",
    "SimStats",
    "WindowedLatencyProbe",
    "disturbance_metrics",
    "zero_load_latency",
]
