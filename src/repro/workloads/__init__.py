"""Real-workload substrate (paper Table IV).

The paper drives its RTL simulator with Pin-collected traces of Spark,
CloudSuite, Redis and kernel workloads run on a PowerEdge server.
Without those binaries, this package synthesizes the equivalent:
per-workload address-stream generators with each workload's
characteristic locality and read/write mix, filtered through the
paper's exact cache hierarchy (32 KB L1 / 2 MB L2 / 32 MB L3, assoc
4/8/16, 64 B lines), timestamped with an average-CPI model — the same
post-L3 miss streams the paper's traces reduce to at the memory
network's boundary.
"""

from repro.workloads.cache import CacheHierarchy, CacheLevel
from repro.workloads.churn import (
    ChurnInjector,
    ChurnResult,
    ChurnSchedule,
    UtilizationController,
    run_churn,
)
from repro.workloads.generators import WORKLOADS, make_workload
from repro.workloads.migration import (
    ForegroundMemoryTraffic,
    MigrationRunResult,
    run_migration,
)
from repro.workloads.runner import WorkloadResult, run_workload
from repro.workloads.trace import MemoryAccess, WorkloadTrace, collect_trace

__all__ = [
    "CacheHierarchy",
    "CacheLevel",
    "ChurnInjector",
    "ChurnResult",
    "ChurnSchedule",
    "ForegroundMemoryTraffic",
    "MemoryAccess",
    "MigrationRunResult",
    "UtilizationController",
    "WORKLOADS",
    "WorkloadResult",
    "WorkloadTrace",
    "collect_trace",
    "make_workload",
    "run_churn",
    "run_migration",
    "run_workload",
]
