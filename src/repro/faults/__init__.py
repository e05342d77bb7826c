"""Fault injection and resilience: unplanned failures end-to-end.

Everything before this package asked the network to *scale* — planned
departures where the reconfiguration manager drains, migrates, and
only then cuts links.  This package asks it to *survive*: links flap
and die, nodes crash and hang mid-packet, with no drain and no
warning, and the measured questions are the paper's §V resilience
claims — does routing degrade gracefully, how much does detection
latency cost, is `sent == delivered + lost` provable, and does a crash
lose data?

* :class:`FaultLayer` — the simulator-attached loss/parking/retransmit
  semantics (the physics of failure).
* :class:`FaultInjector` / :class:`FaultPlan` / :class:`FaultRecord` —
  failures as ``fault`` ops (:mod:`repro.ops`) fired into the event
  loop, and their recorded timelines.
* :class:`FaultDetector` + :class:`TableRepair` / :class:`GraphRepair`
  — timeout-delayed detection and the emergency reroute (local table
  bit flips on String Figure, global recompute on baselines).
* :class:`RecoveryOrchestrator` — crash excision through the live
  reconfiguration pipeline plus page reconstruction through the
  migration engine (mirrored) or lost-page accounting (unmirrored).

The scenario gluing all of it under foreground traffic is
:func:`repro.workloads.faults.run_faults`.
"""

from repro.faults.detector import FaultDetector, GraphRepair, TableRepair
from repro.faults.injector import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultRecord,
)
from repro.faults.layer import FaultLayer
from repro.faults.recovery import RecoveryOrchestrator

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRecord",
    "FaultInjector",
    "FaultLayer",
    "FaultDetector",
    "TableRepair",
    "GraphRepair",
    "RecoveryOrchestrator",
]
