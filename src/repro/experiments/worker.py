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

    ``instrument`` (optional) is forwarded to runners that build a
    simulator or service: it is called with the freshly built object
    before traffic starts, which is how ``repro trace`` attaches
    observability probes.  Kinds the registry does not mark
    ``traceable`` ignore it.
    """
    from repro.experiments.kinds import KINDS

    kind = KINDS.get(task.kind)
    if kind is None:
        raise ValueError(f"unknown task kind {task.kind!r}")
    return kind.run(task, instrument)


def _build_policy(task: ExperimentTask):
    return memo_policy(
        task.design, task.nodes, task.topology_seed, task.topology_params
    )


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
    return make_topology(
        task.design, task.nodes, seed=task.topology_seed, ports=ports,
        **kwargs,
    )


def _run_synthetic(task: ExperimentTask, instrument=None) -> dict[str, Any]:
    from repro.traffic.injection import run_synthetic
    from repro.traffic.patterns import make_pattern

    try:
        topo, policy = _build_policy(task)
    except ValueError as exc:
        return {"unsupported": True, "error": str(exc)}
    pattern = make_pattern(task.pattern, topo.active_nodes)
    stats = run_synthetic(
        topo,
        policy,
        pattern,
        task.rate,
        warmup=task.sim("warmup", 300),
        measure=task.sim("measure", 1000),
        drain_limit=task.sim("drain_limit", 40_000),
        payload_bytes=task.sim("payload_bytes", 64),
        seed=task.seed,
        instrument=instrument,
    )
    payload = _stats_payload(stats)
    payload["radix"] = _radix_of(topo)
    return payload


def _run_saturation(task: ExperimentTask, instrument=None) -> dict[str, Any]:
    from repro.analysis.saturation import find_saturation
    from repro.traffic.patterns import make_pattern

    try:
        topo, policy = _build_policy(task)
    except ValueError as exc:
        return {"unsupported": True, "error": str(exc)}
    pattern = make_pattern(task.pattern, topo.active_nodes)
    rate = find_saturation(
        topo,
        policy,
        pattern,
        low_rate=task.sim("low_rate", 0.02),
        latency_factor=task.sim("latency_factor", 3.0),
        accept_threshold=task.sim("accept_threshold", 0.95),
        warmup=task.sim("warmup", 200),
        measure=task.sim("measure", 500),
        drain_limit=task.sim("drain_limit", 20_000),
        resolution=task.sim("resolution", 0.05),
        seed=task.seed,
    )
    return {"saturation_rate": rate}


def _run_workload(task: ExperimentTask, instrument=None) -> dict[str, Any]:
    from repro.workloads.runner import run_workload

    try:
        topo, policy = _build_policy(task)
    except ValueError as exc:
        return {"unsupported": True, "error": str(exc)}
    # Trace collection is the only stochastic input of a replay, so the
    # task's seed axis drives it unless the spec pins an explicit
    # trace_seed — this is what makes `seeds=(0, 1, 2)` produce real
    # replicates rather than three identical runs.
    trace = memo_trace(
        task.workload,
        max_memory_accesses=task.sim("trace_accesses", 2000),
        scale=task.sim("trace_scale", 0.02),
        seed=task.sim("trace_seed", task.seed),
        max_cpu_accesses=task.sim("max_cpu_accesses"),
        cpi=task.sim("cpi", 1.0),
    )
    result = run_workload(
        topo,
        policy,
        trace,
        sockets=task.sim("sockets", 4),
        mlp=task.sim("mlp", 8),
    )
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


def _run_churn(task: ExperimentTask, instrument=None) -> dict[str, Any]:
    """One live-reconfiguration scenario under synthetic traffic.

    Reconfiguration mutates topology and routing tables, so this runner
    builds everything *fresh* (never through the per-process memos —
    see the :mod:`repro.experiments.memo` reuse contract).  The run is
    still a pure function of the task fields, so caching stays sound.
    """
    from repro.core.topology import StringFigureTopology
    from repro.workloads.churn import ChurnSchedule, run_churn

    try:
        topo = _fresh_topology(task)
    except ValueError as exc:
        return {"unsupported": True, "error": str(exc)}
    if not (
        isinstance(topo, StringFigureTopology) and topo.with_shortcuts
    ):
        return {
            "unsupported": True,
            "error": f"churn requires shortcut wires; {task.design} has none",
        }

    warmup = task.sim("warmup", 300)
    measure = task.sim("measure", 4000)
    fraction = task.sim("gate_fraction", 0.25)
    kind = task.sim("schedule", "cycle")
    schedule = None
    controller_params = None
    if kind == "cycle":
        schedule = ChurnSchedule.cycle(
            gate_at=task.sim("gate_at", warmup + measure // 4),
            wake_at=task.sim("wake_at", warmup + measure // 2),
            fraction=fraction,
        )
    elif kind == "periodic":
        schedule = ChurnSchedule.periodic(
            start=task.sim("start", warmup),
            period=task.sim("period", measure // 2),
            duty=task.sim("duty", 0.5),
            fraction=fraction,
            cycles=task.sim("cycles", 2),
        )
    elif kind == "utilization":
        controller_params = {
            "interval": task.sim("interval", 1000),
            "low_util": task.sim("low_util", 0.01),
            "high_util": task.sim("high_util", 0.05),
            "gate_step": task.sim("gate_step", 2),
            "min_active_fraction": task.sim("min_active_fraction", 0.5),
        }
    else:
        raise ValueError(f"unknown churn schedule kind {kind!r}")

    result = run_churn(
        topo,
        pattern=task.pattern,
        rate=task.rate,
        schedule=schedule,
        controller_params=controller_params,
        warmup=warmup,
        measure=measure,
        drain_limit=task.sim("drain_limit", 60_000),
        seed=task.seed,
        payload_bytes=task.sim("payload_bytes", 64),
        window_cycles=task.sim("window", 200),
        granularity_ns=task.sim("granularity_ns"),
        instrument=instrument,
    )
    payload = result.payload()
    payload["radix"] = _radix_of(topo)
    return payload


def _run_migration(task: ExperimentTask, instrument=None) -> dict[str, Any]:
    """One gate-off/wake cycle with real (or teleported) data movement.

    Like ``churn``, the scenario mutates topology and routing tables,
    so everything is built fresh per task; the run stays a pure
    function of the task fields and caching stays sound.
    """
    from repro.core.topology import StringFigureTopology
    from repro.workloads.migration import run_migration

    try:
        topo = _fresh_topology(task)
    except ValueError as exc:
        return {"unsupported": True, "error": str(exc)}
    if not (
        isinstance(topo, StringFigureTopology) and topo.with_shortcuts
    ):
        return {
            "unsupported": True,
            "error": f"migration requires shortcut wires; {task.design} has none",
        }

    warmup = task.sim("warmup", 300)
    measure = task.sim("measure", 6000)
    result = run_migration(
        topo,
        rate=task.rate,
        gate_fraction=task.sim("gate_fraction", 0.25),
        gate_at=task.sim("gate_at"),
        wake_at=task.sim("wake_at"),
        footprint_pages=task.sim("footprint_pages", 128),
        page_bytes=task.sim("page_bytes", 4096),
        rate_limit=task.sim("rate_limit", 32.0),
        max_inflight_pages=task.sim("max_inflight_pages", 4),
        chunk_bytes=task.sim("chunk_bytes", 512),
        mode=task.sim("mode", "migrate"),
        warmup=warmup,
        measure=measure,
        drain_limit=task.sim("drain_limit", 80_000),
        seed=task.seed,
        instrument=instrument,
    )
    payload = result.payload()
    payload["radix"] = _radix_of(topo)
    return payload


def _run_faults(task: ExperimentTask, instrument=None) -> dict[str, Any]:
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

    try:
        topo = _fresh_topology(task)
    except ValueError as exc:
        return {"unsupported": True, "error": str(exc)}
    if isinstance(topo, StringFigureTopology) and not topo.with_shortcuts:
        return {
            "unsupported": True,
            "error": (
                f"fault recovery requires shortcut wires; "
                f"{task.design} has none"
            ),
        }

    warmup = task.sim("warmup", 300)
    measure = task.sim("measure", 4000)
    kinds = task.sim("kinds")
    result = run_faults(
        topo,
        pattern=task.pattern,
        rate=task.rate,
        schedule=task.sim("schedule", "random"),
        fault_rate=task.sim("fault_rate", 0.001),
        kinds=tuple(kinds) if kinds else ("link_down", "link_flap",
                                          "node_crash", "node_hang"),
        flap_cycles=task.sim("flap_cycles", 300),
        hang_cycles=task.sim("hang_cycles", 500),
        max_crashes=task.sim("max_crashes", 1),
        crash_at=task.sim("crash_at"),
        detection_timeout=task.sim("detection_timeout", 200),
        retransmit_timeout=task.sim("retransmit_timeout", 64),
        max_retries=task.sim("max_retries", 8),
        footprint_pages=task.sim("footprint_pages", 0),
        page_bytes=task.sim("page_bytes", 4096),
        mirrored=bool(task.sim("mirrored", True)),
        mig_rate_limit=task.sim("mig_rate_limit", 64.0),
        warmup=warmup,
        measure=measure,
        drain_limit=task.sim("drain_limit", 60_000),
        seed=task.seed,
        payload_bytes=task.sim("payload_bytes", 64),
        window_cycles=task.sim("window", 200),
        instrument=instrument,
    )
    payload = result.payload()
    payload["radix"] = _radix_of(topo)
    return payload


def _run_path_stats(task: ExperimentTask, instrument=None) -> dict[str, Any]:
    from repro.analysis.paths import greedy_path_stats
    from repro.core.topology import StringFigureTopology

    try:
        topo, routing = memo_routing(
            task.design,
            task.nodes,
            task.topology_seed,
            task.topology_params,
            use_two_hop=task.sim("use_two_hop", True),
        )
    except ValueError as exc:
        # Unrealizable scale or a table-routed baseline (no greediest
        # protocol) — an unsupported point either way.
        return {"unsupported": True, "error": str(exc)}
    stats = greedy_path_stats(
        routing,
        sample_pairs=task.sim("sample_pairs", 2000),
        seed=task.seed,
    )
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


def _run_service(task: ExperimentTask, instrument=None) -> dict[str, Any]:
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
            tenants=task.sim("tenants", 8),
            requests_per_tenant=task.sim("requests_per_tenant", 64),
            rate=task.rate,
            footprint_pages=task.sim("footprint_pages", 512),
            read_fraction=task.sim("read_fraction", 0.7),
            size=task.sim("size", 64),
            max_outstanding=task.sim("max_outstanding", 256),
            queue_depth=task.sim("queue_depth", 512),
            node_watermark=task.sim("node_watermark", 32),
            scale_at=task.sim("scale_at"),
            scale_count=task.sim("scale_count", 0),
            scale_back_after=task.sim("scale_back_after"),
            fault_at=task.sim("fault_at"),
            fault_kind=task.sim("fault_kind", "node_crash"),
            fault_node=task.sim("fault_node"),
            instrument=instrument,
        )
    except ValueError as exc:
        return {"unsupported": True, "error": str(exc)}
    return result.payload()


def _run_interference(
    task: ExperimentTask, instrument=None, anatomy: bool = False,
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

    try:
        topo = _fresh_topology(task)
    except ValueError as exc:
        return {"unsupported": True, "error": str(exc)}
    result = run_interference(
        topo,
        mode=task.sim("mode", "noise"),
        rate=task.rate,
        fg_rate=task.sim("fg_rate", 0.05),
        pattern=task.pattern,
        qos=bool(task.sim("qos", True)),
        warmup=task.sim("warmup", 300),
        measure=task.sim("measure", 2000),
        drain_limit=task.sim("drain_limit", 60_000),
        seed=task.seed,
        payload_bytes=task.sim("payload_bytes", 64),
        noise_fraction=task.sim("noise_fraction", 0.5),
        hotspot_count=task.sim("hotspot_count", 4),
        burst_period=task.sim("burst_period", 256),
        burst_duty=task.sim("burst_duty", 0.25),
        incast_degree=task.sim("incast_degree", 16),
        incast_period=task.sim("incast_period", 64),
        instrument=instrument,
        anatomy=anatomy,
    )
    payload = result.payload()
    payload["radix"] = _radix_of(topo)
    return payload


def _run_anatomy(task: ExperimentTask, instrument=None) -> dict[str, Any]:
    """One interference point with the latency anatomy installed.

    Identical grid/knobs to ``interference``; the payload additionally
    carries the ``obs_``-prefixed delay-decomposition fractions, the
    hottest contended links, and the class-on-class interference cells
    (all from :meth:`repro.obs.anatomy.LatencyAnatomy.payload`).  The
    anatomy hooks make the run slightly slower but the simulated
    results — and therefore the cache identity — are bit-identical to
    the uninstrumented point.
    """
    return _run_interference(task, instrument, anatomy=True)

