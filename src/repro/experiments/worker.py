"""Task execution: one :class:`ExperimentTask` -> one payload dict.

:func:`execute_task` is the single entry point used by both the serial
path and the multiprocessing pool (it must stay a module-level function
so it pickles by reference).  Payloads are flat JSON-safe dicts of raw
metrics — consumers apply their own thresholds/normalization — so the
same cached result serves every figure that needs the point.

Tasks whose topology cannot be built at the requested scale (e.g. a
mesh at a non-square node count) return ``{"unsupported": True}``
instead of raising: an unsupported grid point is data, not an error,
and the paper's figures show exactly such holes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.experiments.memo import (
    memo_policy,
    memo_routing,
    memo_trace,
)

if TYPE_CHECKING:  # the kind registry imports this module's runners
    from repro.experiments.spec import ExperimentTask

__all__ = ["execute_task"]


def _radix_of(topology) -> int:
    return (
        topology.num_ports
        if hasattr(topology, "num_ports")
        else topology.radix
    )


def _stats_payload(stats) -> dict[str, Any]:
    """Flatten a :class:`SimStats` into JSON-safe raw metrics."""
    return {
        "injected": stats.injected,
        "delivered": stats.delivered,
        "measured_delivered": stats.measured_delivered,
        "avg_latency": stats.avg_latency,
        "p95_latency": stats.latency.percentile(95),
        "max_latency": stats.latency.maximum,
        "avg_hops": stats.avg_hops,
        "accepted_rate": stats.accepted_rate,
        "fallback_hops": stats.fallback_hops,
        "deadlock_recoveries": stats.deadlock_recoveries,
        "bit_hops": stats.bit_hops,
        "flit_hops": stats.flit_hops,
        "flit_delivered": stats.flit_delivered,
        "measure_cycles": stats.measure_cycles,
        "num_nodes": stats.num_nodes,
        "throughput": stats.throughput_flits_per_node_cycle,
        "avg_queue": stats.avg_queue_occupancy,
    }


def execute_task(task: ExperimentTask, instrument=None) -> dict[str, Any]:
    """Run one task to completion and return its payload.

    The task's ``sim_params`` reach its kind's runner by keyword name
    (:func:`repro.experiments.kinds.task_params`); a key the kind does
    not read raises :class:`TypeError` before anything runs.

    ``instrument`` (optional) is forwarded to runners that build a
    simulator or service: it is called with the freshly built object
    before traffic starts, which is how ``repro trace`` attaches
    observability probes.  Kinds the registry does not mark
    ``traceable`` ignore it.
    """
    from repro.experiments.kinds import KINDS, task_params

    params = task_params(task)
    try:
        return KINDS[task.kind].run(task, params, instrument)
    except _Unsupported as exc:
        return {"unsupported": True, "error": str(exc)}


def _take(params: dict[str, Any], *names: str) -> dict[str, Any]:
    """Pop the *names* that *params* sets, as a dict of their own."""
    return {name: params.pop(name) for name in names if name in params}


def _window(params: dict[str, Any]) -> dict[str, Any]:
    """Spec key ``window`` is the runners' ``window_cycles``."""
    if "window" in params:
        params["window_cycles"] = params.pop("window")
    return params


class _Unsupported(Exception):
    """A grid point the design cannot realize (data, not an error)."""


def _build_policy(task: ExperimentTask):
    try:
        return memo_policy(
            task.design, task.nodes, task.topology_seed, task.topology_params
        )
    except ValueError as exc:
        raise _Unsupported(str(exc)) from None


def _fresh_topology(task: ExperimentTask):
    """Build the task's topology outside the per-process memos.

    Scenarios that gate nodes, excise crashes or install a class table
    mutate the topology, routing tables or port state, so they must not
    share a memoized instance (see the :mod:`repro.experiments.memo`
    reuse contract).
    """
    from repro.topologies.registry import make_topology

    kwargs = dict(task.topology_params)
    ports = kwargs.pop("ports", None)
    try:
        return make_topology(
            task.design, task.nodes, seed=task.topology_seed, ports=ports,
            **kwargs,
        )
    except ValueError as exc:
        raise _Unsupported(str(exc)) from None


def _no_shortcuts(task: ExperimentTask, what: str) -> _Unsupported:
    return _Unsupported(f"{what} requires shortcut wires; {task.design} has none")


def _run_synthetic(task: ExperimentTask, params, instrument) -> dict[str, Any]:
    from repro.traffic.injection import run_synthetic
    from repro.traffic.patterns import make_pattern

    topo, policy = _build_policy(task)
    pattern = make_pattern(task.pattern, topo.active_nodes)
    stats = run_synthetic(
        topo, policy, pattern, task.rate, seed=task.seed,
        instrument=instrument, **params,
    )
    return {**_stats_payload(stats), "radix": _radix_of(topo)}


def _run_saturation(task: ExperimentTask, params, instrument) -> dict[str, Any]:
    from repro.analysis.saturation import find_saturation
    from repro.traffic.patterns import make_pattern

    topo, policy = _build_policy(task)
    pattern = make_pattern(task.pattern, topo.active_nodes)
    rate = find_saturation(topo, policy, pattern, seed=task.seed, **params)
    return {"saturation_rate": rate}


def _run_workload(task: ExperimentTask, params, instrument) -> dict[str, Any]:
    from repro.workloads.runner import run_workload

    topo, policy = _build_policy(task)
    # Trace collection is the only stochastic input of a replay, so the
    # task's seed axis drives it unless the spec pins an explicit
    # trace_seed — this is what makes `seeds=(0, 1, 2)` produce real
    # replicates rather than three identical runs.
    trace = memo_trace(
        task.workload,
        max_memory_accesses=params.pop("trace_accesses", 2000),
        scale=params.pop("trace_scale", 0.02),
        seed=params.pop("trace_seed", task.seed),
        **_take(params, "max_cpu_accesses", "cpi"),
    )
    result = run_workload(topo, policy, trace, **params)
    return {
        "workload": result.workload,
        "topology": result.topology,
        "radix": _radix_of(topo),
        "runtime_cycles": result.runtime_cycles,
        "operations": result.operations,
        "throughput_ops_per_kcycle": result.throughput_ops_per_kcycle,
        "avg_read_latency": result.avg_read_latency,
        "ipc": result.ipc,
        "instructions": result.instructions,
        # Flat (radix-independent) energy components; consumers apply
        # repro.energy.model.radix_energy_factor(radix) when they want
        # the radix-aware Figure 12(b) accounting.
        "network_pj": result.energy.network_pj,
        "dram_pj": result.energy.dram_pj,
        "bit_hops": result.stats.bit_hops,
        "dram_bits": result.stats.dram_bits,
        "fallback_hops": result.stats.fallback_hops,
        "deadlock_recoveries": result.stats.deadlock_recoveries,
    }


def _run_churn(task: ExperimentTask, params, instrument) -> dict[str, Any]:
    """One live-reconfiguration scenario under synthetic traffic.

    Reconfiguration mutates topology and routing tables, so this runner
    builds everything *fresh* (never through the per-process memos —
    see the :mod:`repro.experiments.memo` reuse contract).  The run is
    still a pure function of the task fields, so caching stays sound.
    """
    import inspect

    from repro.core.topology import StringFigureTopology
    from repro.workloads.churn import ChurnSchedule, run_churn

    topo = _fresh_topology(task)
    if not (isinstance(topo, StringFigureTopology) and topo.with_shortcuts):
        raise _no_shortcuts(task, "churn")
    # The schedule keys build run_churn's schedule or controller; the
    # default times follow the run's own warmup and measure.
    kind = params.pop("schedule", "cycle")
    fraction = params.pop("gate_fraction", 0.25)
    times = _take(params, "gate_at", "wake_at", "start", "period", "duty", "cycles")
    controller = _take(
        params, "interval", "low_util", "high_util", "gate_step",
        "min_active_fraction",
    )
    warmup = params.get(
        "warmup", inspect.signature(run_churn).parameters["warmup"].default
    )
    measure = params["measure"]
    schedule = controller_params = None
    if kind == "cycle":
        schedule = ChurnSchedule.cycle(
            gate_at=times.get("gate_at", warmup + measure // 4),
            wake_at=times.get("wake_at", warmup + measure // 2),
            fraction=fraction,
        )
    elif kind == "periodic":
        schedule = ChurnSchedule.periodic(
            start=times.get("start", warmup),
            period=times.get("period", measure // 2),
            duty=times.get("duty", 0.5),
            fraction=fraction,
            cycles=times.get("cycles", 2),
        )
    elif kind == "utilization":
        controller_params = controller
    else:
        raise ValueError(f"unknown churn schedule kind {kind!r}")

    result = run_churn(
        topo,
        pattern=task.pattern,
        rate=task.rate,
        schedule=schedule,
        controller_params=controller_params,
        seed=task.seed,
        instrument=instrument,
        **_window(params),
    )
    return {**result.payload(), "radix": _radix_of(topo)}


def _run_migration(task: ExperimentTask, params, instrument) -> dict[str, Any]:
    """One gate-off/wake cycle with real (or teleported) data movement.

    Like ``churn``, the scenario mutates topology and routing tables,
    so everything is built fresh per task; the run stays a pure
    function of the task fields and caching stays sound.
    """
    from repro.core.topology import StringFigureTopology
    from repro.workloads.migration import run_migration

    topo = _fresh_topology(task)
    if not (isinstance(topo, StringFigureTopology) and topo.with_shortcuts):
        raise _no_shortcuts(task, "migration")
    result = run_migration(
        topo, rate=task.rate, seed=task.seed, instrument=instrument, **params
    )
    return {**result.payload(), "radix": _radix_of(topo)}


def _run_faults(task: ExperimentTask, params, instrument) -> dict[str, Any]:
    """One unplanned-failure scenario under synthetic traffic.

    Faults mutate the topology (crash excision), routing tables, and —
    with a page layer — the data placement, so everything is built
    *fresh* per task (never through the per-process memos).  The run is
    a pure function of the task fields: fault times, victims, detection
    actions, and recovery transfers all derive from the task seeds, so
    caching and parallel execution stay sound.

    Unlike ``churn``/``migration``, the designs axis spans the
    baselines: DM and Jellyfish repair by global routing recompute, the
    paper's comparison point for String Figure's local table repair.
    """
    from repro.core.topology import StringFigureTopology
    from repro.workloads.faults import run_faults

    topo = _fresh_topology(task)
    if isinstance(topo, StringFigureTopology) and not topo.with_shortcuts:
        raise _no_shortcuts(task, "fault recovery")
    # An empty (or null) kinds list means every fault kind.
    kinds = params.pop("kinds", None)
    if kinds:
        params["kinds"] = tuple(kinds)
    if "mirrored" in params:
        params["mirrored"] = bool(params["mirrored"])
    result = run_faults(
        topo,
        pattern=task.pattern,
        rate=task.rate,
        seed=task.seed,
        instrument=instrument,
        **_window(params),
    )
    return {**result.payload(), "radix": _radix_of(topo)}


def _run_path_stats(task: ExperimentTask, params, instrument) -> dict[str, Any]:
    from repro.analysis.paths import greedy_path_stats
    from repro.core.topology import StringFigureTopology

    try:
        topo, routing = memo_routing(
            task.design,
            task.nodes,
            task.topology_seed,
            task.topology_params,
            **_take(params, "use_two_hop"),
        )
    except ValueError as exc:
        # Unrealizable scale or a table-routed baseline (no greediest
        # protocol) — an unsupported point either way.
        raise _Unsupported(str(exc)) from None
    stats = greedy_path_stats(routing, seed=task.seed, **params)
    payload: dict[str, Any] = {
        "mean_hops": stats.mean,
        "p10_hops": stats.p10,
        "p90_hops": stats.p90,
        "max_hops": stats.maximum,
        "samples": stats.samples,
    }
    if isinstance(topo, StringFigureTopology):
        payload["min_balance"] = min(
            topo.coords.balance_score(s) for s in range(topo.num_spaces)
        )
    return payload


def _run_service(task: ExperimentTask, params, instrument) -> dict[str, Any]:
    """One multi-tenant fabric-service load point (offline, no sockets).

    Builds the full resident-service stack fresh (the control verbs
    mutate topology and placement, exactly like ``churn``/``faults``)
    and drives a seeded synthetic client schedule through the same
    ingestion path the daemon and the replay engine use, so a sweep
    point is a repeatable, cacheable stand-in for live load.  The task
    ``rate`` is per-tenant requests/cycle; service knobs ride in
    ``sim_params``.
    """
    from repro.workloads.service import run_service

    kwargs = dict(task.topology_params)
    ports = kwargs.pop("ports", None)
    try:
        result = run_service(
            nodes=task.nodes,
            design=task.design,
            ports=ports,
            topology_seed=task.topology_seed,
            seed=task.seed,
            rate=task.rate,
            instrument=instrument,
            **params,
        )
    except ValueError as exc:
        raise _Unsupported(str(exc)) from None
    return result.payload()


def _run_interference(
    task: ExperimentTask, params, instrument, anatomy: bool = False,
) -> dict[str, Any]:
    """One multi-tenant interference point: foreground vs interferer.

    The task ``rate`` is the *interference* offered load (the swept
    axis of the per-class p99 comparison); the latency-critical
    foreground rate, the interference shape (``mode``), and the
    classless-baseline switch (``qos``) ride in ``sim_params``.  Built
    fresh per task like ``faults`` — the QoS table rewires the
    simulator's port state, so memoized topologies must not be shared.
    """
    from repro.workloads.interference import run_interference

    topo = _fresh_topology(task)
    if "qos" in params:
        params["qos"] = bool(params["qos"])
    result = run_interference(
        topo,
        rate=task.rate,
        pattern=task.pattern,
        seed=task.seed,
        instrument=instrument,
        anatomy=anatomy,
        **params,
    )
    return {**result.payload(), "radix": _radix_of(topo)}


def _run_anatomy(task: ExperimentTask, params, instrument) -> dict[str, Any]:
    """One interference point with the latency anatomy installed.

    Identical grid/knobs to ``interference``; the payload additionally
    carries the ``obs_``-prefixed delay-decomposition fractions, the
    hottest contended links, and the class-on-class interference cells
    (all from :meth:`repro.obs.anatomy.LatencyAnatomy.payload`).  The
    anatomy hooks make the run slightly slower but the simulated
    results — and therefore the cache identity — are bit-identical to
    the uninstrumented point.
    """
    return _run_interference(task, params, instrument, anatomy=True)

