"""The experiment-kind registry: one declaration per kind.

Each :class:`ExperimentKind` names everything the engine needs to know
about one family of simulation points:

* ``axes`` — which of the optional grid axes of an
  :class:`~repro.experiments.spec.ExperimentSpec` (``workloads``,
  ``patterns``, ``rates``) the kind expands over, besides the
  ``designs``/``nodes``/``seeds`` every kind reads.  ``workloads`` is
  the outermost loop; ``patterns`` and ``rates`` sit between ``nodes``
  and ``seeds``.  Axes a kind does not list are ignored.
* ``run`` — the runner in :mod:`repro.experiments.worker`, a pure
  function of the task (plus an optional ``instrument`` callback).
* ``columns`` — the report columns, each ``(header, source, fmt)``.
  ``source`` is a task field (one of :data:`TASK_FIELDS`), a payload
  key, or a callable of the payload; ``fmt`` formats float cells.
  Payload cells of an ``unsupported`` point render as ``-``.
* ``traceable`` — whether the runner builds one simulator or service
  that ``repro trace`` can instrument.

Spec validation and expansion, :func:`execute_task`, ``sweep_table``,
the CLI's ``--kind`` choices and :data:`TASK_KINDS` all read
:data:`KINDS`.  The kinds:

``synthetic``
    One :func:`repro.traffic.injection.run_synthetic` run at a fixed
    injection rate (Figure 11 points).
``saturation``
    One :func:`repro.analysis.saturation.find_saturation` search
    (Figure 10 points).
``workload``
    One :func:`repro.workloads.runner.run_workload` trace replay
    (Figure 12 points); the trace parameters ride in ``sim_params``.
``path_stats``
    Structural greediest-protocol hop statistics via
    :func:`repro.analysis.paths.greedy_path_stats` (sensitivity
    studies); routing options like ``use_two_hop`` ride in
    ``sim_params`` and topology options in ``topology_params``.
``churn``
    One :func:`repro.workloads.churn.run_churn` live-reconfiguration
    scenario (synthetic traffic with mid-flight gate/wake events); the
    churn schedule parameters (``gate_fraction``, ``schedule``,
    ``period`` ...) ride in ``sim_params``.
``migration``
    One :func:`repro.workloads.migration.run_migration` gate-off/wake
    cycle with real data migration (or the ``teleport`` baseline);
    migration knobs (``rate_limit``, ``page_bytes``, ``mode``,
    ``footprint_pages`` ...) ride in ``sim_params``.  The ``patterns``
    axis is expanded but unused: the foreground address stream is
    uniform over the page footprint.
``faults``
    One :func:`repro.workloads.faults.run_faults` unplanned-failure
    scenario (link flaps/failures, node hangs/crashes with
    timeout-based detection, emergency reroute, and crash recovery);
    fault knobs (``fault_rate``, ``detection_timeout``, ``schedule``,
    ``mirrored``, ``footprint_pages`` ...) ride in ``sim_params``.
    Unlike ``churn``/``migration`` the designs axis spans the
    baselines too (SF vs DM vs Jellyfish is the paper's resilience
    comparison).
``service``
    One :func:`repro.workloads.service.run_service` multi-tenant load
    point against a resident fabric-service stack; service knobs
    (``tenants``, ``requests_per_tenant``, ``max_outstanding``,
    ``node_watermark``, ``scale_at`` ...) ride in ``sim_params`` and
    the ``rates`` axis is per-tenant requests/cycle.
``interference``
    One :func:`repro.workloads.interference.run_interference` point:
    the swept ``rate`` is the interference load against a fixed
    latency-critical foreground (``fg_rate``, ``mode`` and ``qos`` ride
    in ``sim_params``).
``anatomy``
    One interference point run with the
    :class:`repro.obs.anatomy.LatencyAnatomy` delay decomposition
    installed: the payload adds ``obs_``-prefixed component fractions,
    hot links and class-on-class interference cells, which sweep
    reports pick up as extra columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro.experiments import worker

__all__ = ["KINDS", "TASK_FIELDS", "TASK_KINDS", "Column", "ExperimentKind"]

#: Task fields a report column may name as its source.
TASK_FIELDS = ("design", "nodes", "pattern", "rate", "seed", "workload")


class Column(NamedTuple):
    """One report column: header, source and float format."""

    header: str
    source: str | Callable[[dict[str, Any]], Any]
    fmt: str = ".2f"


@dataclass(frozen=True)
class ExperimentKind:
    """Grid axes, runner, report columns and traceability of one kind."""

    name: str
    axes: tuple[str, ...]
    run: Callable[..., dict[str, Any]]
    columns: tuple[Column, ...]
    traceable: bool = False


_DESIGN = (Column("design", "design"), Column("N", "nodes"))
_SEED = Column("seed", "seed")
_RATE = Column("rate", "rate", "g")
_PATTERN = Column("pattern", "pattern")
_RATE_POINT = (*_DESIGN, _RATE, _SEED)
_PATTERN_RATE_POINT = (*_DESIGN, _PATTERN, _RATE, _SEED)
_SWEPT = ("patterns", "rates")


def _drained_and_conserved(payload: dict[str, Any]) -> bool:
    return bool(payload.get("conserved")) and bool(payload.get("drained"))


_KINDS = (
    ExperimentKind(
        "synthetic", _SWEPT, worker._run_synthetic,
        (*_PATTERN_RATE_POINT,
         Column("avg_lat", "avg_latency", ".1f"),
         Column("p95_lat", "p95_latency", ".1f"),
         Column("hops", "avg_hops"),
         Column("accepted", "accepted_rate", ".3f")),
        traceable=True,
    ),
    ExperimentKind(
        "saturation", ("patterns",), worker._run_saturation,
        (*_DESIGN, _PATTERN, _SEED,
         Column("sat_rate", "saturation_rate")),
    ),
    ExperimentKind(
        "workload", ("workloads",), worker._run_workload,
        (Column("workload", "workload"), *_DESIGN, _SEED,
         Column("ops/kcycle", "throughput_ops_per_kcycle", ".1f"),
         Column("read_lat", "avg_read_latency", ".1f"),
         Column("runtime", "runtime_cycles")),
    ),
    ExperimentKind(
        "path_stats", (), worker._run_path_stats,
        (*_DESIGN, _SEED,
         Column("mean_hops", "mean_hops"),
         Column("p90", "p90_hops", ".1f"),
         Column("max", "max_hops")),
    ),
    ExperimentKind(
        "churn", _SWEPT, worker._run_churn,
        (*_PATTERN_RATE_POINT,
         Column("events", "num_events"),
         Column("avg_lat", "avg_latency", ".1f"),
         Column("peak_ratio", "max_peak_ratio"),
         Column("recov_cyc", "max_recovery_cycles"),
         Column("parked", "parked_total"),
         Column("conserved", lambda p: p.get("sent") == p.get("delivered"))),
        traceable=True,
    ),
    ExperimentKind(
        "migration", _SWEPT, worker._run_migration,
        (*_RATE_POINT,
         Column("mode", "mode"),
         Column("pages", "pages_moved"),
         Column("KiB", lambda p: p.get("bytes_moved", 0) / 1024, ".0f"),
         Column("makespan", "migration_makespan"),
         Column("fg_p99", "fg_p99_overall", ".1f"),
         Column("slow_p99", "fg_slowdown_p99"),
         Column("stalled", "fg_stalled"),
         Column("conserved", lambda p: (
             p.get("sent") == p.get("delivered")
             and p.get("fg_issued") == p.get("fg_completed")
             and bool(p.get("page_conservation"))
         ))),
        traceable=True,
    ),
    ExperimentKind(
        "faults", _SWEPT, worker._run_faults,
        (*_RATE_POINT,
         Column("faults", "num_faults"),
         Column("lost", "lost"),
         Column("retx", "retransmits"),
         Column("p50_dur", "fg_p50_during", ".0f"),
         Column("p99_dur", "fg_p99_during", ".0f"),
         Column("slow_p99", "fg_slowdown_p99"),
         Column("unreach_cyc", "unreachable_node_cycles"),
         Column("pg_lost", "pages_lost"),
         Column("conserved", "all_conserved")),
        traceable=True,
    ),
    ExperimentKind(
        "service", _SWEPT, worker._run_service,
        (*_RATE_POINT,
         Column("submitted", "submitted"),
         Column("done", "completed"),
         Column("shed", "shed"),
         Column("queued", "queued_total"),
         Column("req/kcyc", "requests_per_kcycle", ".1f"),
         Column("p50", "p50", ".0f"),
         Column("p99", "p99", ".0f"),
         Column("p99_max", "p99_max", ".0f"),
         Column("pg_lost", "pages_lost"),
         Column("conserved", "conserved")),
        traceable=True,
    ),
    ExperimentKind(
        "interference", _SWEPT, worker._run_interference,
        (*_RATE_POINT,
         Column("mode", "mode"),
         Column("qos", "qos"),
         Column("fg_p50", "fg_p50", ".0f"),
         Column("fg_p99", "fg_p99", ".0f"),
         Column("bulk_p50", "bulk_p50", ".0f"),
         Column("bulk_p99", "bulk_p99", ".0f"),
         Column("p99_ratio", "p99_ratio", ".1f"),
         Column("recov", "deadlock_recoveries"),
         Column("conserved", _drained_and_conserved)),
        traceable=True,
    ),
    ExperimentKind(
        # The per-component fractions, hot links and interference cells
        # ride in as ``obs_``-prefixed auto-columns.
        "anatomy", _SWEPT, worker._run_anatomy,
        (*_RATE_POINT,
         Column("mode", "mode"),
         Column("qos", "qos"),
         Column("fg_p99", "fg_p99", ".0f"),
         Column("bulk_p99", "bulk_p99", ".0f"),
         Column("p99_ratio", "p99_ratio", ".1f"),
         Column("conserved", _drained_and_conserved)),
        traceable=True,
    ),
)

#: Every experiment kind by name, in report-section order.
KINDS: dict[str, ExperimentKind] = {kind.name: kind for kind in _KINDS}

TASK_KINDS = tuple(KINDS)
