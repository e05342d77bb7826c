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
  function of the task, its ``sim_params`` and an ``instrument``
  callback (or ``None``).
* ``params`` — the ``sim_params`` keys the kind reads.  Each is a
  keyword parameter of the function the kind wraps (``run_synthetic``,
  ``run_churn`` ...), passed by name, so that signature holds its one
  default; only ``window`` (``window_cycles``), the ``trace_*`` keys
  and churn's schedule keys build an argument instead.  A key the kind
  does not read is refused with a :class:`TypeError` before any point
  runs or any cache entry is read or written (:func:`task_params`).
* ``defaults`` — the few sweep defaults that differ on purpose from the
  wrapped function's own.
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

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple

from repro.experiments import worker

__all__ = [
    "KINDS", "TASK_FIELDS", "TASK_KINDS", "Column", "ExperimentKind",
    "task_params",
]

#: Task fields a report column may name as its source.
TASK_FIELDS = ("design", "nodes", "pattern", "rate", "seed", "workload")


class Column(NamedTuple):
    """One report column: header, source and float format."""

    header: str
    source: str | Callable[[dict[str, Any]], Any]
    fmt: str = ".2f"


@dataclass(frozen=True)
class ExperimentKind:
    """Grid axes, runner, parameters, report columns and traceability."""

    name: str
    axes: tuple[str, ...]
    run: Callable[..., dict[str, Any]]
    params: tuple[str, ...]
    columns: tuple[Column, ...]
    traceable: bool = False
    defaults: Mapping[str, Any] = field(default_factory=dict)


_DESIGN = (Column("design", "design"), Column("N", "nodes"))
_SEED = Column("seed", "seed")
_RATE = Column("rate", "rate", "g")
_PATTERN = Column("pattern", "pattern")
_RATE_POINT = (*_DESIGN, _RATE, _SEED)
_PATTERN_RATE_POINT = (*_DESIGN, _PATTERN, _RATE, _SEED)
_SWEPT = ("patterns", "rates")

_TIMING = ("warmup", "measure", "drain_limit")
_INTERFERENCE = (
    *_TIMING, "mode", "fg_rate", "qos", "payload_bytes", "noise_fraction",
    "hotspot_count", "burst_period", "burst_duty", "incast_degree",
    "incast_period",
)


def _drained_and_conserved(payload: dict[str, Any]) -> bool:
    return bool(payload.get("conserved")) and bool(payload.get("drained"))


_KINDS = (
    ExperimentKind(
        "synthetic", _SWEPT, worker._run_synthetic,
        (*_TIMING, "payload_bytes"),
        (*_PATTERN_RATE_POINT,
         Column("avg_lat", "avg_latency", ".1f"),
         Column("p95_lat", "p95_latency", ".1f"),
         Column("hops", "avg_hops"),
         Column("accepted", "accepted_rate", ".3f")),
        traceable=True,
    ),
    ExperimentKind(
        "saturation", ("patterns",), worker._run_saturation,
        (*_TIMING, "low_rate", "latency_factor", "accept_threshold",
         "resolution"),
        (*_DESIGN, _PATTERN, _SEED,
         Column("sat_rate", "saturation_rate")),
    ),
    ExperimentKind(
        "workload", ("workloads",), worker._run_workload,
        ("trace_accesses", "trace_scale", "trace_seed", "max_cpu_accesses",
         "cpi", "sockets", "mlp"),
        (Column("workload", "workload"), *_DESIGN, _SEED,
         Column("ops/kcycle", "throughput_ops_per_kcycle", ".1f"),
         Column("read_lat", "avg_read_latency", ".1f"),
         Column("runtime", "runtime_cycles")),
    ),
    ExperimentKind(
        "path_stats", (), worker._run_path_stats,
        ("use_two_hop", "sample_pairs"),
        (*_DESIGN, _SEED,
         Column("mean_hops", "mean_hops"),
         Column("p90", "p90_hops", ".1f"),
         Column("max", "max_hops")),
    ),
    ExperimentKind(
        "churn", _SWEPT, worker._run_churn,
        (*_TIMING, "payload_bytes", "window", "granularity_ns",
         "schedule", "gate_fraction", "gate_at", "wake_at",
         "start", "period", "duty", "cycles",
         "interval", "low_util", "high_util", "gate_step",
         "min_active_fraction"),
        (*_PATTERN_RATE_POINT,
         Column("events", "num_events"),
         Column("avg_lat", "avg_latency", ".1f"),
         Column("peak_ratio", "max_peak_ratio"),
         Column("recov_cyc", "max_recovery_cycles"),
         Column("parked", "parked_total"),
         Column("conserved", lambda p: p.get("sent") == p.get("delivered"))),
        traceable=True,
        # A longer run than run_churn's own measure and drain_limit, and
        # a faster controller than UtilizationController's interval.
        defaults={"measure": 4000, "drain_limit": 60_000, "interval": 1000},
    ),
    ExperimentKind(
        "migration", _SWEPT, worker._run_migration,
        (*_TIMING, "gate_fraction", "gate_at", "wake_at", "footprint_pages",
         "page_bytes", "rate_limit", "max_inflight_pages", "chunk_bytes",
         "mode"),
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
        (*_TIMING, "payload_bytes", "window", "schedule", "fault_rate",
         "kinds", "flap_cycles", "hang_cycles", "max_crashes", "crash_at",
         "detection_timeout", "retransmit_timeout", "max_retries",
         "footprint_pages", "page_bytes", "mirrored", "mig_rate_limit"),
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
        ("tenants", "requests_per_tenant", "footprint_pages",
         "read_fraction", "size", "max_outstanding", "queue_depth",
         "node_watermark", "scale_at", "scale_count", "scale_back_after",
         "fault_at", "fault_kind", "fault_node"),
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
        "interference", _SWEPT, worker._run_interference, _INTERFERENCE,
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
        "anatomy", _SWEPT, worker._run_anatomy, _INTERFERENCE,
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


def task_params(task) -> dict[str, Any]:
    """The keyword arguments *task*'s ``sim_params`` give its runner.

    The task's own values sit over its kind's sweep ``defaults``.  A key
    the kind does not read raises :class:`TypeError` naming the kind and
    the key, as a misspelt keyword argument would; so does an unknown
    kind (a :class:`ValueError`).
    """
    kind = KINDS.get(task.kind)
    if kind is None:
        raise ValueError(f"unknown task kind {task.kind!r}")
    unknown = [key for key, _ in task.sim_params if key not in kind.params]
    if unknown:
        raise TypeError(
            f"kind {kind.name!r} does not read sim_params "
            f"{', '.join(map(repr, unknown))}; it reads "
            f"{', '.join(sorted(kind.params))}"
        )
    return {**kind.defaults, **dict(task.sim_params)}
