"""Command-line interface: ``python -m repro <command>``.

Each subcommand covers one of the library's main entry points:

* ``topology`` — build a named topology and print structural metrics
  (radix, path lengths, bisection bandwidth, routing state).
* ``simulate`` — run a synthetic-traffic simulation and print latency,
  throughput, and energy.
* ``workload`` — replay a Table IV workload trace and print runtime,
  read latency, and energy.
* ``reconfigure`` — demonstrate elastic scaling: gate a fraction of a
  String Figure network, probe it, and restore it (offline).
* ``sweep`` — run a declarative experiment grid (designs x nodes x
  patterns x rates x seeds, or workload replays) through the parallel
  experiment engine, with multiprocess execution and result caching.
* ``churn`` — live elasticity under load: gate/wake nodes *while
  traffic flows*, measuring per-event latency disturbance and recovery
  time; sweeps run through the same parallel engine and cache.
* ``migrate`` — elasticity that pays for data movement: a gate-off/wake
  cycle where the victims' pages move as real network traffic, swept
  over migration rate limits x page sizes (plus the instant-remap
  ``teleport`` baseline) through the same parallel engine and cache.
* ``faults`` — unplanned failures end-to-end: link flaps/failures and
  node hangs/crashes fire into the event loop with no drain and no
  warning; timeout-based detection triggers emergency reroute and (for
  crashes) page recovery, swept over fault rate x detection timeout x
  topology (SF vs DM vs Jellyfish — the paper's resilience
  comparison) through the same parallel engine and cache.
* ``interference`` — multi-tenant QoS: the latency-critical class's
  p99 against swept noise/burst/incast interference load, with the
  class table installed or as the classless baseline, through the same
  parallel engine and cache.
* ``trace`` — one instrumented point of any traceable experiment kind:
  installs the observability probes (metrics registry, cycle-domain
  timeseries, packet flight recorder) and emits artifacts — timeseries JSONL,
  Chrome/Perfetto trace JSON, metrics snapshot + Prometheus text —
  then verifies that summed per-interval counter deltas reconcile
  exactly with the final totals (see ``docs/OBSERVABILITY.md``).
* ``hotspots`` — one contended scenario under the latency anatomy:
  per-component delay, the most contended links and routers, and the
  class-on-class interference matrix (see ``docs/LATENCY.md``).
* ``serve`` — the simulator as a long-running daemon: a resident
  fabric accepts concurrent client read/write streams over a
  newline-JSON TCP socket, with admission control, per-tenant p50/p99,
  live ``scale``/``fault``/``drain`` control verbs, request-log
  capture, and bit-identical ``--replay``; ``--selftest`` runs the
  full socket-level load test in-process (see ``docs/SERVICE.md``).

The five sweep commands are one :class:`Sweep` declaration each, in
:data:`SWEEPS`: one function builds their parsers and one turns their
parsed flags into the specs they run (see ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import argparse
import itertools
import operator
import string
import sys
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro.experiments.kinds import TASK_KINDS

__all__ = ["main", "build_parser"]


class Flag(NamedTuple):
    """One option of a sweep command and the spec value it sets.

    ``sets`` names a spec field (``kind``, an axis or
    ``topology_seed``), the topology parameter ``ports``, or else a
    ``sim_params`` key; ``None`` marks an option that sets none of
    them (``--spec``, the execution flags, and switches a collapse rule
    reads).  ``form`` says how the parsed value becomes the spec value:

    * ``"one"`` — the value as parsed (``type`` converts it); an axis
      gets it as its only value, and ``None`` leaves the field unset;
    * ``"list"`` — one tuple of the comma-separated items, each
      converted by ``type``;
    * ``"each"`` — the same items, but each becomes its own spec (a
      ``type`` returning a tuple gives several items);
    * ``"switch"`` — a ``store_true`` flag; one that sets a value maps
      it through ``type`` (``operator.not_`` inverts it).
    """

    option: str
    sets: str | None
    default: Any = None
    type: Callable[[Any], Any] | None = None
    form: str = "one"
    help: str | None = None
    choices: Sequence[str] | None = None
    metavar: str | None = None


class Sweep(NamedTuple):
    """One sweep subcommand: its flags, its specs and its report.

    ``name`` is the spec-name template; its ``{field}``s are the
    ``"each"`` flags' keys, in the nesting order of the specs they
    expand to, and a ``-``-separated part whose field a variant lacks
    is left out.  ``fixed`` holds the spec fields no flag sets and
    ``timing`` the ``--warmup/--measure/--drain-limit`` defaults, which
    every spec carries in its ``sim_params`` and so in its cache keys.
    ``rule`` maps the variant dicts (the ``sim_params`` each spec adds)
    before the specs are made.
    """

    help: str
    name: str
    flags: tuple[Flag, ...]
    fixed: Mapping[str, Any]
    timing: tuple[int | None, int | None, int | None] = (None, None, None)
    ports: bool = True
    rule: Callable[[argparse.Namespace, list[dict]], list[dict]] | None = None
    report: Callable[[Any], None] | None = None
    summary: Callable[[Any], None] | None = None


#: Spec fields a flag may set; the axes among them take a tuple.
_AXES = ("designs", "nodes", "patterns", "rates", "seeds", "workloads")
_SPEC_FIELDS = (*_AXES, "kind", "topology_seed")


def _all_flags(sweep: Sweep) -> tuple[Flag, ...]:
    """The command's own flags, then the grid, timing and execution ones."""
    warmup, measure, drain_limit = sweep.timing
    return (
        *sweep.flags,
        Flag("--nodes", "nodes", "64", int, "list", help="comma-separated node counts"),
        *((Flag("--ports", "ports", type=int),) if sweep.ports else ()),
        Flag("--seeds", "seeds", "0", int, "list", help="comma-separated seeds"),
        Flag("--topology-seed", "topology_seed", 0, int),
        Flag("--warmup", "warmup", warmup, int),
        Flag("--measure", "measure", measure, int),
        Flag("--drain-limit", "drain_limit", drain_limit, int),
        Flag("--workers", None, 1, int, help="process count (0 = one per CPU; results identical)"),
        Flag("--cache-dir", None,
             help="result cache directory (default: benchmarks/results/cache "
                  "when run from the repo, else ~/.cache/string-figure-repro)"),
        Flag("--no-cache", None, form="switch",
             help="run every point even if cached, and store nothing"),
        Flag("--output", None, metavar="FILE", help="also dump raw task payloads as JSON"),
    )


def _add_sweep_parser(sub, name: str, sweep: Sweep) -> None:
    parser = sub.add_parser(name, help=sweep.help)
    for flag in _all_flags(sweep):
        if flag.form == "switch":
            parser.add_argument(flag.option, action="store_true", help=flag.help)
        else:
            parser.add_argument(
                flag.option, default=flag.default, help=flag.help, choices=flag.choices,
                metavar=flag.metavar,
                **({"type": flag.type} if flag.form == "one" and flag.type else {}),
            )


def _items(flag: Flag, text: str) -> list:
    """The comma-separated items of *text*, converted by the flag's type
    (a type that returns a tuple gives several items)."""
    items = [(flag.type or str)(item.strip()) for item in text.split(",") if item.strip()]
    return [v for item in items for v in (item if isinstance(item, tuple) else (item,))]


class _SpecName(string.Formatter):
    """Spec-name templates, where ``{qos:qos/raw}`` spells a boolean."""

    def format_field(self, value: Any, format_spec: str) -> str:
        if isinstance(value, bool):
            return format_spec.split("/")[not value]
        return super().format_field(value, format_spec)


def _fields(template: str) -> list[str]:
    return [field for _, field, _, _ in string.Formatter().parse(template) if field]


def _sweep_specs(sweep: Sweep, args: argparse.Namespace) -> list:
    """The specs a parsed sweep command line declares, in run order."""
    from repro.experiments import ExperimentSpec

    if getattr(args, "spec", None):
        return [ExperimentSpec.from_file(args.spec)]
    spec_fields, topology, sim, axes = dict(sweep.fixed), {}, {}, {}
    for flag in _all_flags(sweep):
        value = getattr(args, flag.option[2:].replace("-", "_"))
        if flag.sets is None or (value is None and flag.form == "one"):
            continue
        if flag.form == "each":
            axes[flag.sets] = _items(flag, value)
            continue
        if flag.form == "list":
            value = tuple(_items(flag, value))
        elif flag.form == "switch":
            value = flag.type(value)
        elif flag.sets in _AXES:
            value = (value,)
        target = (
            spec_fields if flag.sets in _SPEC_FIELDS else topology if flag.sets == "ports" else sim
        )
        target[flag.sets] = value
    order = [key for key in _fields(sweep.name) if key in axes]
    variants = [dict(zip(order, point)) for point in itertools.product(*map(axes.get, order))]
    specs = []
    for variant in sweep.rule(args, variants) if sweep.rule else variants:
        parts = [part for part in sweep.name.split("-") if set(_fields(part)) <= set(variant)]
        specs.append(ExperimentSpec(
            name=_SpecName().format("-".join(parts), **variant),
            sim_params={**sim, **variant},
            topology_params=topology,
            **spec_fields,
        ))
    return specs


def build_parser() -> argparse.ArgumentParser:
    from repro.experiments.kinds import KINDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="String Figure memory network (HPCA 2019) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    topo = sub.add_parser("topology", help="structural metrics of a design")
    topo.add_argument("name", help="SF, S2, DM, ODM, FB, AFB, Jellyfish")
    topo.add_argument("--nodes", type=int, default=64)
    topo.add_argument("--ports", type=int, default=None)
    topo.add_argument("--seed", type=int, default=0)

    sim = sub.add_parser("simulate", help="synthetic-traffic simulation")
    sim.add_argument("name")
    sim.add_argument("--nodes", type=int, default=64)
    sim.add_argument("--pattern", default="uniform_random")
    sim.add_argument("--rate", type=float, default=0.2)
    sim.add_argument("--warmup", type=int, default=200)
    sim.add_argument("--measure", type=int, default=600)
    sim.add_argument("--seed", type=int, default=0)

    work = sub.add_parser("workload", help="trace-driven workload replay")
    work.add_argument("name")
    work.add_argument("--workload", default="redis")
    work.add_argument("--nodes", type=int, default=64)
    work.add_argument("--accesses", type=int, default=2000)
    work.add_argument("--scale", type=float, default=0.02)
    work.add_argument("--seed", type=int, default=0)

    reconf = sub.add_parser("reconfigure", help="elastic scaling demo")
    reconf.add_argument("--nodes", type=int, default=96)
    reconf.add_argument("--ports", type=int, default=8)
    reconf.add_argument("--fraction", type=float, default=0.25)
    reconf.add_argument("--seed", type=int, default=0)

    for name, sweep in SWEEPS.items():
        _add_sweep_parser(sub, name, sweep)

    trace = sub.add_parser(
        "trace",
        help="run one instrumented point and emit observability "
             "artifacts (metrics, timeseries, packet trace; "
             "docs/OBSERVABILITY.md)",
    )
    trace.add_argument(
        "--kind", default="synthetic",
        choices=[name for name, kind in KINDS.items() if kind.traceable],
        help="experiment kind to run under probes",
    )
    trace.add_argument("--design", default="SF")
    trace.add_argument("--nodes", type=int, default=144)
    trace.add_argument("--pattern", default="uniform_random")
    trace.add_argument("--rate", type=float, default=0.1)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--topology-seed", type=int, default=0)
    trace.add_argument("--ports", type=int, default=None)
    trace.add_argument("--warmup", type=int, default=None)
    trace.add_argument("--measure", type=int, default=None)
    trace.add_argument("--drain-limit", type=int, default=None)
    trace.add_argument(
        "--sample-interval", type=int, default=256,
        help="timeseries sampling interval in simulated cycles",
    )
    trace.add_argument(
        "--trace-fraction", type=float, default=0.02,
        help="fraction of packets flight-recorded (seeded hash sample)",
    )
    trace.add_argument("--trace-seed", type=int, default=0)
    trace.add_argument(
        "--ring", type=int, default=256,
        help="post-mortem ring: last N events kept",
    )
    trace.add_argument(
        "--max-trace-records", type=int, default=250_000,
        help="flight-recorder hop-record bound (excess counted, not kept)",
    )
    trace.add_argument(
        "--out-dir", default="trace-out", metavar="DIR",
        help="artifact directory (created if missing)",
    )
    trace.add_argument(
        "--no-anatomy", action="store_true",
        help="skip the per-packet delay decomposition (and its "
             "anatomy.json / per-link CSV artifacts)",
    )

    hot = sub.add_parser(
        "hotspots",
        help="one contended scenario under the latency anatomy: "
             "per-component delay, top contended links, class "
             "interference matrix (docs/LATENCY.md)",
    )
    hot.add_argument("--design", default="SF")
    hot.add_argument("--nodes", type=int, default=64)
    hot.add_argument("--ports", type=int, default=None)
    hot.add_argument(
        "--mode", default="incast", choices=("noise", "burst", "incast"),
        help="interference shape aimed at the fabric",
    )
    hot.add_argument(
        "--rate", type=float, default=0.3,
        help="offered interference load per interfering node",
    )
    hot.add_argument(
        "--fg-rate", type=float, default=0.05,
        help="latency-critical foreground injection rate",
    )
    hot.add_argument(
        "--no-qos", action="store_true",
        help="classless run (no class table; every wait is queueing)",
    )
    hot.add_argument("--pattern", default="uniform_random")
    hot.add_argument("--seed", type=int, default=0)
    hot.add_argument("--topology-seed", type=int, default=0)
    hot.add_argument("--warmup", type=int, default=300)
    hot.add_argument("--measure", type=int, default=2000)
    hot.add_argument("--drain-limit", type=int, default=60_000)
    hot.add_argument(
        "--top", type=int, default=8,
        help="top-K contended links/routers shown",
    )
    hot.add_argument(
        "--output", default=None, metavar="FILE",
        help="also dump the full anatomy summary as JSON",
    )
    hot.add_argument(
        "--links-csv", default=None, metavar="FILE",
        help="also dump every per-link contention row as CSV",
    )

    serve = sub.add_parser(
        "serve",
        help="resident fabric daemon over newline-JSON TCP "
             "(docs/SERVICE.md)",
    )
    serve.add_argument("--design", default="SF")
    serve.add_argument("--nodes", type=int, default=144)
    serve.add_argument("--ports", type=int, default=None)
    serve.add_argument("--topology-seed", type=int, default=0)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7117,
        help="TCP port (0 = ephemeral, printed at startup)",
    )
    serve.add_argument("--page-bytes", type=int, default=4096)
    serve.add_argument("--footprint-pages", type=int, default=512)
    serve.add_argument(
        "--max-outstanding", type=int, default=256,
        help="global in-flight request budget before queueing",
    )
    serve.add_argument(
        "--queue-depth", type=int, default=512,
        help="admission queue bound; beyond it requests shed",
    )
    serve.add_argument(
        "--node-watermark", type=int, default=32,
        help="per-destination in-flight packet watermark",
    )
    serve.add_argument(
        "--quantum", type=int, default=64,
        help="simulated cycles advanced per ingestion batch",
    )
    serve.add_argument(
        "--capture", default=None, metavar="FILE",
        help="write the request log (JSONL) at shutdown for --replay",
    )
    serve.add_argument(
        "--replay", default=None, metavar="FILE",
        help="re-run a captured request log bit-identically and exit",
    )
    serve.add_argument(
        "--metrics", action="store_true",
        help="install observability probes at boot (the `metrics` verb "
             "installs them lazily on first scrape otherwise)",
    )
    serve.add_argument(
        "--qos", action="store_true",
        help="install the default traffic-class table: priority "
             "arbitration, per-class credits, class-aware admission, "
             "per-class SLO blocks in stats/metrics",
    )
    serve.add_argument(
        "--tenant-class", action="append", default=None,
        metavar="TENANT=CLASS",
        help="map a tenant to a class id (repeatable; unmapped tenants "
             "ride class 0, the latency class); implies nothing "
             "without --qos",
    )
    serve.add_argument(
        "--slow-log", type=int, default=None, metavar="CYCLES",
        help="log completed requests at/above this end-to-end latency: "
             "one JSON line per request on stderr with the full delay "
             "breakdown (admission/network components/dram); also "
             "installs probes+anatomy at boot and exposes the recent "
             "ring via the stats verb",
    )
    serve.add_argument(
        "--slow-log-size", type=int, default=256,
        help="bounded ring: recent slow-request records kept in memory",
    )
    serve.add_argument(
        "--selftest", action="store_true",
        help="in-process daemon + concurrent socket clients + live "
             "scale/fault verbs + conservation and replay checks",
    )
    serve.add_argument(
        "--clients", type=int, default=32,
        help="selftest: concurrent client connections",
    )
    serve.add_argument(
        "--requests", type=int, default=24,
        help="selftest: requests per client (closed loop)",
    )
    serve.add_argument(
        "--window", type=int, default=4,
        help="selftest: per-client in-flight window",
    )
    serve.add_argument(
        "--no-verify-replay", action="store_true",
        help="selftest: skip the bit-identical replay check",
    )

    return parser


def _cmd_topology(args) -> int:
    from repro.analysis.bisection import empirical_bisection
    from repro.analysis.paths import shortest_path_stats
    from repro.core.routing_table import table_bits
    from repro.core.topology import StringFigureTopology
    from repro.topologies.registry import make_topology

    topo = make_topology(args.name, args.nodes, seed=args.seed, ports=args.ports)
    g = topo.graph()
    paths = shortest_path_stats(g, sample_sources=64)
    radix = topo.num_ports if hasattr(topo, "num_ports") else topo.radix
    print(f"design:          {args.name}")
    print(f"nodes:           {topo.num_nodes}")
    print(f"router radix:    {radix}")
    print(f"links:           {g.number_of_edges()}")
    print(f"avg path:        {paths.mean:.2f} (p90 {paths.p90:.0f}, "
          f"max {paths.maximum})")
    print(f"bisection:       {empirical_bisection(g, partitions=10):.0f}")
    if isinstance(topo, StringFigureTopology):
        bits = table_bits(topo.num_nodes, topo.num_ports)
        print(f"routing table:   <= {bits / 8 / 1024:.2f} KB per router "
              "(constant in N)")
        print(f"virtual spaces:  {topo.num_spaces}")
        print(f"shortcut wires:  {len(topo.shortcut_wires)}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.energy.model import EnergyModel
    from repro.topologies.registry import make_policy, make_topology
    from repro.traffic.injection import run_synthetic
    from repro.traffic.patterns import make_pattern

    topo = make_topology(args.name, args.nodes, seed=args.seed)
    policy = make_policy(topo)
    pattern = make_pattern(args.pattern, topo.active_nodes)
    stats = run_synthetic(
        topo,
        policy,
        pattern,
        args.rate,
        warmup=args.warmup,
        measure=args.measure,
        seed=args.seed,
    )
    energy = EnergyModel().from_stats(stats)
    print(f"{args.name} N={args.nodes} {args.pattern} @ {args.rate:.0%}:")
    print(f"  avg latency:   {stats.avg_latency:.1f} cycles "
          f"({stats.avg_latency * 3.2:.0f} ns)")
    print(f"  p95 latency:   {stats.latency.percentile(95):.1f} cycles")
    print(f"  avg hops:      {stats.avg_hops:.2f}")
    print(f"  accepted:      {stats.accepted_rate:.1%}")
    print(f"  fallback hops: {stats.fallback_hops}")
    print(f"  network energy:{energy.network_pj / 1e6:10.2f} uJ")
    return 0


def _cmd_workload(args) -> int:
    from repro.topologies.registry import make_policy, make_topology
    from repro.workloads.runner import run_workload
    from repro.workloads.trace import collect_trace

    trace = collect_trace(
        args.workload,
        max_memory_accesses=args.accesses,
        scale=args.scale,
        seed=args.seed,
    )
    topo = make_topology(args.name, args.nodes, seed=args.seed)
    result = run_workload(topo, make_policy(topo), trace)
    print(f"{args.workload} on {args.name} (N={args.nodes}):")
    print(f"  memory accesses: {result.operations}")
    print(f"  runtime:         {result.runtime_cycles} cycles "
          f"({result.runtime_cycles * 3.2 / 1000:.1f} us)")
    print(f"  avg read latency:{result.avg_read_latency:9.1f} cycles")
    print(f"  throughput:      {result.throughput_ops_per_kcycle:.1f} "
          "ops/kcycle")
    print(f"  energy:          net {result.energy.network_pj / 1e6:.2f} uJ, "
          f"dram {result.energy.dram_pj / 1e6:.2f} uJ")
    return 0


def _cmd_reconfigure(args) -> int:
    from repro.analysis.paths import greedy_path_stats
    from repro.core.reconfig import ReconfigurationManager
    from repro.core.routing import AdaptiveGreediestRouting
    from repro.core.topology import StringFigureTopology
    from repro.energy.power_gating import PowerManager

    topo = StringFigureTopology(args.nodes, args.ports, seed=args.seed)
    routing = AdaptiveGreediestRouting(topo)
    manager = PowerManager(ReconfigurationManager(topo, routing))
    before = greedy_path_stats(routing, sample_pairs=1000)
    print(f"full network:   {args.nodes} nodes, avg {before.mean:.2f} hops")
    plan = manager.gate_fraction(args.fraction)
    after = greedy_path_stats(routing, sample_pairs=1000)
    print(f"gated {len(plan.gated)} nodes (sleep {plan.overhead_ns:.0f} ns); "
          f"{len(topo.active_shortcuts)} shortcut wires switched in")
    print(f"down-scaled:    {len(topo.active_nodes)} nodes, "
          f"avg {after.mean:.2f} hops, "
          f"connected: {manager.manager.validate_connectivity()}")
    plan = manager.wake_all(now_ns=200_000)
    restored = greedy_path_stats(routing, sample_pairs=1000)
    print(f"restored:       {len(topo.active_nodes)} nodes, "
          f"avg {restored.mean:.2f} hops "
          f"(wake {plan.overhead_ns:.0f} ns)")
    return 0


def _resolve_cache_dir(cache_dir):
    if cache_dir is not None:
        return cache_dir
    from pathlib import Path

    repo_default = Path("benchmarks/results/cache")
    return (
        repo_default
        if repo_default.parent.parent.is_dir()
        else Path.home() / ".cache" / "string-figure-repro"
    )


def _supported(pairs):
    return [(task, p) for task, p in pairs if not p.get("unsupported")]


def _run_spec_command(args, specs, report=None, summary=None) -> int:
    """Run *specs* in order and print what every sweep command prints.

    Each spec gets its table, the optional per-result *report* and a
    footer with its hash and cache counts; *summary* then sees every
    (task, payload) pair.  One runner and cache serve all specs, and
    ``--output`` dumps every payload.
    """
    from repro.experiments import ParallelRunner, ResultCache
    from repro.experiments.report import sweep_table, write_result_json

    cache = (
        None if args.no_cache else ResultCache(_resolve_cache_dir(args.cache_dir))
    )
    runner = ParallelRunner(workers=args.workers, cache=cache)
    pairs = []
    for i, spec in enumerate(specs):
        result = runner.run(spec)
        if i:
            print()
        print(sweep_table(result))
        if report is not None:
            report(result)
        print(f"\n{spec.name} [{spec.spec_hash()}]: {result.summary()}")
        pairs.extend(result)
    if summary is not None:
        summary(pairs)
    if cache is not None:
        print(f"cache: {cache.directory}")
    if args.output:
        path = write_result_json(
            args.output,
            {task.key(): {"task": task.to_dict(), "payload": payload}
             for task, payload in pairs},
        )
        print(f"payloads: {path}")
    return 0


def _churn_report(result) -> None:
    """Per-event detail under the churn summary table."""
    for task, payload in _supported(result):
        print(f"\n{task.label()}: "
              f"{payload['num_events']} reconfiguration events, "
              f"min active {payload['min_active_nodes']}/{payload['num_nodes']} "
              f"nodes, conservation "
              f"{'ok' if payload['sent'] == payload['delivered'] else 'BROKEN'}")
        for event in payload["events"]:
            recovery = (
                f"recovered in {event['recovery_cycles']} cyc"
                if event["recovered"] and event["recovery_cycles"] is not None
                else ("nothing to recover" if event["recovered"]
                      else "not recovered in horizon")
            )
            print(f"  {event['kind']:8s} x{event['num_nodes']:<3d} "
                  f"@t={event['t_request']:<6d} "
                  f"drain {event['drain_cycles']:4d} cyc, "
                  f"blocked {event['block_cycles']:4d} cyc, "
                  f"parked {event['parked_packets']:4d}, "
                  f"peak latency {event['peak_ratio']:.2f}x baseline, "
                  f"{recovery}")


def _migrate_summary(pairs) -> None:
    by_mode: dict[str, list[dict]] = {}
    for _, payload in _supported(pairs):
        by_mode.setdefault(payload["mode"], []).append(payload)
    if "migrate" not in by_mode or "teleport" not in by_mode:
        return
    moved = sum(p["bytes_moved"] for p in by_mode["migrate"])
    makespan = max(p["max_makespan"] for p in by_mode["migrate"])

    def worst_p99(mode: str) -> float:
        return max(p["fg_p99_overall"] for p in by_mode[mode])

    print(
        f"\nmigrate vs teleport: {moved / 1024:.0f} KiB actually moved "
        f"(teleport: 0), longest batch makespan {makespan} cycles, "
        f"worst foreground p99 {worst_p99('migrate'):.0f} vs "
        f"{worst_p99('teleport'):.0f} cycles"
    )


def _faults_report(result) -> None:
    """Per-point phase latency + availability detail under the table."""
    for task, payload in _supported(result):
        conserved = payload["all_conserved"]
        print(
            f"\n{task.label()}: {payload['num_faults']} faults "
            f"{payload['faults_by_kind']}, "
            f"lost {payload['lost']} pkts ({payload['retransmits']} "
            f"retransmits, {payload['abandoned_retries']} gave up), "
            f"unreachable {payload['unreachable_node_cycles']} node-cycles, "
            f"pages lost/recovered {payload['pages_lost']}/"
            f"{payload['pages_recovered']}, "
            f"conservation {'ok' if conserved else 'BROKEN'}"
        )
        for phase in ("baseline", "during", "after"):
            print(
                f"  {phase:8s} p50 {payload[f'fg_p50_{phase}']:7.1f}  "
                f"p99 {payload[f'fg_p99_{phase}']:7.1f}  "
                f"({payload[f'fg_{phase}_requests']} requests)"
            )
        for event in payload["events"]:
            where = (
                f"node {event['node']}" if event["node"] is not None
                else f"link {tuple(event['link'])}"
            )
            timeline = f"@t={event['t_fault']}"
            if event["t_detected"] is not None:
                timeline += f" detected +{event['t_detected'] - event['t_fault']}"
            if event["t_repaired"] is not None:
                timeline += f", repaired +{event['t_repaired'] - event['t_fault']}"
            if event["t_recovered"] is not None:
                timeline += f", recovered +{event['t_recovered'] - event['t_fault']}"
            recovery = (
                f"latency recovered in {event['recovery_cycles']} cyc"
                if event["recovered"] and event["recovery_cycles"] is not None
                else ("nothing to recover" if event["recovered"]
                      else "not recovered in horizon")
            )
            print(f"  {event['kind']:10s} {where:16s} {timeline}, "
                  f"peak {event['peak_ratio']:.2f}x baseline, {recovery}")


def _faults_summary(pairs) -> None:
    by_design: dict[str, list[dict]] = {}
    for task, payload in _supported(pairs):
        by_design.setdefault(task.design, []).append(payload)
    if len(by_design) < 2:
        return
    print("\nresilience comparison (worst grid point per design):")
    for design, payloads in sorted(by_design.items()):
        print(
            f"  {design:>9s}: worst during-fault p99 "
            f"{max(p['fg_p99_during'] for p in payloads):6.0f} cyc, "
            f"lost {sum(p['lost'] for p in payloads):4d} pkts, "
            f"unreachable {sum(p['unreachable_node_cycles'] for p in payloads):6d} "
            f"node-cycles over {sum(p['num_faults'] for p in payloads)} faults"
        )


def _interference_summary(pairs) -> None:
    by_design: dict[str, list[dict]] = {}
    for task, payload in _supported(pairs):
        by_design.setdefault(task.design, []).append(payload)
    if not by_design:
        return
    print("\nisolation summary (worst grid point per design):")
    for design, payloads in sorted(by_design.items()):
        protected = [p for p in payloads if p.get("qos")]
        exposed = [p for p in payloads if not p.get("qos")]
        line = f"  {design:>9s}:"
        if protected:
            line += (
                f" qos fg_p99 {max(p['fg_p99'] for p in protected):6.0f}"
                f" / bulk_p99 "
                f"{max(p['bulk_p99'] for p in protected):6.0f} cyc"
            )
        if exposed:
            line += (
                f"; classless fg_p99 "
                f"{max(p['fg_p99'] for p in exposed):6.0f} cyc"
            )
        print(line)


def _teleport_once(args, variants: list[dict]) -> list[dict]:
    """Teleport moves zero bytes, so its rate limit is moot: one
    baseline variant per page size, at the first rate limit."""
    first = [variant["rate_limit"] for variant in variants[:1]]
    return [v for v in variants if v["mode"] == "migrate" or v["rate_limit"] in first]


def _crash_drops_fault_rate(args, variants: list[dict]) -> list[dict]:
    """A single crash ignores the arrival rate, so it gets one variant
    per detection timeout, and the unused rate stays out of the spec
    name and ``sim_params``, or identical crash runs would hash to
    different cache keys."""
    if args.schedule == "random":
        return variants
    first = [variant["fault_rate"] for variant in variants[:1]]
    return [
        {key: value for key, value in v.items() if key != "fault_rate"}
        for v in variants if v["fault_rate"] in first
    ]


def _qos_variants(args, variants: list[dict]) -> list[dict]:
    """``--no-qos`` runs the classless baseline only; ``--baseline``
    adds it beside the QoS run."""
    qos = [False] if args.no_qos else [True, False] if args.baseline else [True]
    return [{**variant, "qos": q} for variant in variants for q in qos]


_RATES = "comma-separated injection rates"
_EACH = "each becomes one sweep variant"
_DESIGNS = "comma-separated topology names"
_PATTERN = Flag("--pattern", "patterns", "uniform_random")

#: Every sweep subcommand, in ``repro --help`` order.
SWEEPS: dict[str, Sweep] = {
    "sweep": Sweep(
        "declarative experiment grid (parallel + cached)", "cli-sweep", (
            Flag("--spec", None, metavar="FILE",
                 help="JSON ExperimentSpec file (grid flags below are ignored)"),
            Flag("--kind", "kind", "synthetic", choices=TASK_KINDS),
            Flag("--designs", "designs", "SF", form="list", help=f"{_DESIGNS} (default: SF)"),
            Flag("--patterns", "patterns", "uniform_random", form="list",
                 help="comma-separated traffic patterns"),
            Flag("--rates", "rates", "0.1,0.2,0.4", float, "list",
                 help=f"{_RATES} (synthetic kind)"),
            Flag("--workloads", "workloads", "redis", form="list",
                 help="comma-separated Table IV workloads (workload kind)"),
        ),
        fixed={}, ports=False,
    ),
    "churn": Sweep(
        "live elasticity under load (parallel + cached)", "cli-churn", (
            Flag("--gate-fraction", "gate_fraction", 0.25, float,
                 help="fraction of active nodes to power-gate per event"),
            Flag("--schedule", "schedule", "cycle", choices=("cycle", "periodic", "utilization"),
                 help="cycle: one gate-off + wake; periodic: duty-cycled churn; "
                      "utilization: closed-loop controller"),
            _PATTERN,
            Flag("--rates", "rates", "0.15", float, "list", help=_RATES),
        ),
        fixed={"kind": "churn", "designs": ("SF",)},
        timing=(300, 4000, 60_000), report=_churn_report,
    ),
    "migrate": Sweep(
        "data migration cost of elastic scaling (parallel + cached)",
        "cli-migrate-{mode}-pb{page_bytes}-rl{rate_limit:g}", (
            Flag("--gate-fraction", "gate_fraction", 0.25, float,
                 help="fraction of active nodes to power-gate (and later wake)"),
            Flag("--rates", "rates", "0.1", float, "list",
                 help="comma-separated foreground request rates"),
            Flag("--rate-limits", "rate_limit", "32,128", float, "each",
                 help=f"comma-separated migration bandwidth budgets (bytes/cycle); {_EACH}"),
            Flag("--page-bytes", "page_bytes", "4096", int, "each",
                 help=f"comma-separated page sizes (power-of-two bytes); {_EACH}"),
            Flag("--footprint-pages", "footprint_pages", 128, int,
                 help="resident working-set size, in pages"),
            Flag("--mode", "mode", "both",
                 lambda mode: ("migrate", "teleport") if mode == "both" else mode, "each",
                 choices=("migrate", "teleport", "both"),
                 help="pay the real movement cost, use the PR-2 instant remap, "
                      "or run both and compare (default)"),
        ),
        fixed={"kind": "migration", "designs": ("SF",), "patterns": ("uniform_random",)},
        timing=(300, 6000, 80_000), rule=_teleport_once, summary=_migrate_summary,
    ),
    "faults": Sweep(
        "unplanned failures: crash/hang/flap resilience (parallel + cached)",
        "cli-faults-fr{fault_rate:g}-dt{detection_timeout}", (
            Flag("--designs", "designs", "SF,DM,Jellyfish", form="list",
                 help=f"{_DESIGNS} (the resilience comparison)"),
            Flag("--schedule", "schedule", "random", choices=("random", "crash"),
                 help="random: mixed fault arrivals at --fault-rates; "
                      "crash: one unannounced node crash (the recovery benchmark)"),
            Flag("--fault-rates", "fault_rate", "0.001", float, "each",
                 help=f"comma-separated fault arrival rates (faults/cycle); {_EACH}"),
            Flag("--detection-timeouts", "detection_timeout", "200", int, "each",
                 help=f"comma-separated detection latencies (cycles); {_EACH}"),
            Flag("--kinds", "kinds", "link_down,link_flap,node_crash,node_hang", form="list",
                 help="comma-separated fault kinds for the random schedule"),
            _PATTERN,
            Flag("--rates", "rates", "0.1", float, "list", help=_RATES),
            Flag("--footprint-pages", "footprint_pages", 64, int,
                 help="resident pages tracked through crash recovery (0 = no page layer)"),
            Flag("--no-mirror", "mirrored", type=operator.not_, form="switch",
                 help="pages have no replica: a crash loses them (lost-page "
                      "accounting instead of recovery)"),
            Flag("--retransmit-timeout", "retransmit_timeout", 64, int,
                 help="cycles a source waits before re-sending a lost packet"),
            Flag("--max-retries", "max_retries", 8, int),
        ),
        fixed={"kind": "faults"}, timing=(300, 4000, 60_000),
        rule=_crash_drops_fault_rate, report=_faults_report, summary=_faults_summary,
    ),
    "interference": Sweep(
        "multi-tenant QoS: per-class p99 vs offered interference load (parallel + cached)",
        "cli-interference-{mode}-{qos:qos/raw}", (
            Flag("--designs", "designs", "SF,DM,Jellyfish", form="list", help=_DESIGNS),
            Flag("--modes", "mode", "noise", form="each",
                 help="comma-separated interference shapes: noise, burst, incast"),
            Flag("--rates", "rates", "0.1,0.3,0.5", float, "list",
                 help="comma-separated offered interference loads (the swept axis)"),
            Flag("--fg-rate", "fg_rate", 0.05, float,
                 help="latency-critical foreground injection rate"),
            Flag("--no-qos", None, form="switch",
                 help="classless baseline only (no class table installed)"),
            Flag("--baseline", None, form="switch",
                 help="also run the classless baseline variant for comparison"),
            _PATTERN,
        ),
        fixed={"kind": "interference"}, timing=(300, 2000, 60_000),
        rule=_qos_variants, summary=_interference_summary,
    ),
}


def _cmd_trace(args) -> int:
    """Run one instrumented point; emit metrics/timeseries/trace artifacts."""
    import json
    import re
    from pathlib import Path

    from repro.experiments import ExperimentSpec
    from repro.experiments.worker import execute_task
    from repro.obs import FabricProbes

    spec = ExperimentSpec(
        name="cli-trace",
        kind=args.kind,
        designs=(args.design,),
        nodes=(args.nodes,),
        patterns=(args.pattern,),
        rates=(args.rate,),
        seeds=(args.seed,),
        topology_seed=args.topology_seed,
        sim_params={
            key: getattr(args, key)
            for key in ("warmup", "measure", "drain_limit")
            if getattr(args, key) is not None
        },
        topology_params={} if args.ports is None else {"ports": args.ports},
    )
    task = spec.tasks()[0]

    probes = FabricProbes.full(
        interval=args.sample_interval,
        fraction=args.trace_fraction,
        seed=args.trace_seed,
        ring_size=args.ring,
        max_records=args.max_trace_records,
        anatomy=not args.no_anatomy,
    )
    attached: dict[str, object] = {}

    def instrument(obj) -> None:
        """Attach probes to whatever the runner built (sim or service)."""
        if hasattr(obj, "sim"):  # FabricService: full-stack wiring
            obj.install_probes(probes)
            attached["sim"] = obj.sim
        else:
            probes.attach_sim(obj)
            attached["sim"] = obj

    payload = execute_task(task, instrument=instrument)
    if payload.get("unsupported"):
        print(f"unsupported point: {payload.get('error')}")
        return 1
    sim = attached.get("sim")
    if sim is None:
        print(f"kind {args.kind!r} never built an instrumentable run")
        return 1
    probes.finish(sim.now)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    base = re.sub(r"[^A-Za-z0-9._-]+", "-", task.label()).strip("-")
    recorder, tracer, registry = probes.recorder, probes.tracer, probes.registry
    anatomy = probes.anatomy
    artifacts = {
        "timeseries": out_dir / f"{base}.timeseries.jsonl",
        "chrome trace": out_dir / f"{base}.trace.json",
        "trace jsonl": out_dir / f"{base}.trace.jsonl",
        "metrics json": out_dir / f"{base}.metrics.json",
        "prometheus": out_dir / f"{base}.metrics.prom",
        "summary": out_dir / f"{base}.summary.json",
    }
    if anatomy is not None:
        artifacts["anatomy json"] = out_dir / f"{base}.anatomy.json"
        artifacts["links csv"] = out_dir / f"{base}.links.csv"
    recorder.write_jsonl(artifacts["timeseries"])
    tracer.write_chrome(artifacts["chrome trace"])
    tracer.write_jsonl(artifacts["trace jsonl"])
    artifacts["metrics json"].write_text(
        json.dumps(registry.snapshot(), indent=2, sort_keys=True) + "\n"
    )
    artifacts["prometheus"].write_text(registry.to_prometheus())
    if anatomy is not None:
        artifacts["anatomy json"].write_text(json.dumps(
            anatomy.summary(), indent=2, sort_keys=True,
        ) + "\n")
        artifacts["links csv"].write_text(anatomy.hotspots.links_csv())
    obs = probes.summary()
    if anatomy is not None:
        # The flat obs_ fields ride in the persisted payload too, so
        # sweep reports and artifact consumers see the same columns.
        payload = {**payload, **anatomy.payload()}
    artifacts["summary"].write_text(json.dumps(
        {"task": task.to_dict(), "payload": payload, "obs": obs},
        indent=2, sort_keys=True, default=str,
    ) + "\n")

    print(f"{task.label()} — instrumented run complete @ cycle {sim.now}")
    print(f"  events processed:  {obs['events_processed']} {obs['events']}")
    print(f"  credit stalls:     {obs['credit_stalls']}, queue high-water "
          f"{obs['occupancy_highwater']} pkts")
    print(f"  timeseries rows:   {obs.get('ts_rows', 0)} "
          f"(interval {args.sample_interval} cycles)")
    print(f"  trace records:     {obs.get('trace_records', 0)} "
          f"({obs.get('trace_dropped', 0)} dropped), "
          f"ring {len(tracer.ring)} events")
    if anatomy is not None:
        totals = anatomy.component_totals()
        grand = sum(totals.values())
        stack = " ".join(
            f"{name}={cycles / grand:.1%}" if grand else f"{name}=0"
            for name, cycles in totals.items() if cycles
        )
        print(f"  latency anatomy:   {anatomy.delivered} packets "
              f"decomposed; {stack or 'no delivered packets'}")
    for name, path in artifacts.items():
        print(f"  {name:16s} -> {path}")

    # The standard report table for this kind, with the observability
    # roll-up riding along as generic ``obs_`` columns.
    from repro.experiments.report import sweep_table

    table_payload = {
        **payload,
        "obs_events": obs["events_processed"],
        "obs_stalls": obs["credit_stalls"],
        "obs_q_hw": obs["occupancy_highwater"],
        "obs_ts_rows": obs.get("ts_rows", 0),
        "obs_trace_recs": obs.get("trace_records", 0),
    }
    print()
    print(sweep_table([(task, table_payload)]))
    print()

    # Acceptance invariant: per-interval timeseries deltas must sum
    # exactly to the final counter totals of the same run.
    sums = recorder.sum_counters()
    finals = {
        s.key: s.value for s in registry.collect() if s.kind == "counter"
    }
    bad = {
        key: (sums.get(key, 0), value)
        for key, value in finals.items()
        if sums.get(key, 0) != value
    }
    if bad:
        print("  RECONCILIATION FAILED:")
        for key, (got, want) in sorted(bad.items()):
            print(f"    {key}: timeseries sum {got} != final {want}")
        return 1
    print(f"  reconciliation:    ok ({len(finals)} counters: timeseries "
          "sums == final totals)")

    # Second acceptance invariant: every delivered packet's component
    # sum must equal its measured end-to-end latency exactly.
    if anatomy is not None:
        if not anatomy.conserved():
            print(f"  CONSERVATION FAILED: "
                  f"{anatomy.conservation_violations} packets' component "
                  f"sums != end-to-end latency")
            for example in anatomy.violation_examples[:3]:
                print(f"    {example}")
            return 1
        print(f"  conservation:      ok ({anatomy.delivered} packets: "
              "component sums == end-to-end latency)")
    return 0


def _cmd_hotspots(args) -> int:
    """Run one contended scenario under the anatomy; print the views."""
    import json

    from repro.experiments.report import render_table
    from repro.topologies.registry import make_topology
    from repro.workloads.interference import run_interference

    try:
        topology = make_topology(
            args.design, args.nodes, seed=args.topology_seed,
            ports=args.ports,
        )
    except ValueError as exc:
        print(f"cannot build {args.design} at N={args.nodes}: {exc}")
        return 1
    result = run_interference(
        topology,
        mode=args.mode,
        rate=args.rate,
        fg_rate=args.fg_rate,
        pattern=args.pattern,
        qos=not args.no_qos,
        warmup=args.warmup,
        measure=args.measure,
        drain_limit=args.drain_limit,
        seed=args.seed,
        anatomy=True,
    )
    anatomy = result.anatomy
    hotspots = anatomy.hotspots

    qos_label = "classless" if args.no_qos else "QoS"
    print(f"{args.design} N={args.nodes} {args.mode} rate={args.rate:g} "
          f"fg={args.fg_rate:g} ({qos_label}) — "
          f"{anatomy.delivered} packets decomposed @ cycle {result.run_end}")

    print("\nper-class delay anatomy (cycles):")
    from repro.obs.anatomy import COMPONENTS

    rows = []
    for label, row in anatomy.class_breakdown().items():
        comps = row["components"]
        rows.append(
            [label, row["delivered"], f"{row['latency_mean']:.1f}"]
            + [comps[name] for name in COMPONENTS]
        )
    print(render_table(
        ["class", "delivered", "mean_lat", *COMPONENTS], rows,
    ))

    print(f"\ntop {args.top} contended links (by blocked cycles):")
    rows = []
    for entry in hotspots.top_links(args.top):
        row = entry.to_dict()
        rows.append([
            f"{entry.u}->{entry.v}", row["enqueues"], row["wait_cycles"],
            f"{row['wait_p50']:.0f}", f"{row['wait_p99']:.0f}",
            f"{row['occupancy_p99']:.0f}",
        ])
    print(render_table(
        ["link", "enqueues", "wait_cyc", "wait_p50", "wait_p99", "occ_p99"],
        rows,
    ))

    print(f"\ntop {args.top} contended routers (outgoing links summed):")
    rows = [
        [r["router"], r["links"], r["dequeues"], r["wait_cycles"]]
        for r in hotspots.router_rollup(args.top)
    ]
    print(render_table(["router", "links", "dequeues", "wait_cyc"], rows))

    matrix = hotspots.matrix_table(anatomy.class_names)
    if matrix:
        print("\nclass-on-class interference (blocked-class rows, cycles "
              "spent behind the column class):")
        cols = sorted({j for row in matrix.values() for j in row})
        rows = [
            [blocked] + [row.get(j, 0) for j in cols]
            for blocked, row in matrix.items()
        ]
        print(render_table(["blocked\\behind", *cols], rows))

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(anatomy.summary(top_k=args.top), fh,
                      indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nanatomy summary -> {args.output}")
    if args.links_csv:
        with open(args.links_csv, "w") as fh:
            fh.write(hotspots.links_csv())
        print(f"per-link CSV -> {args.links_csv}")

    if not anatomy.conserved():
        print(f"\nCONSERVATION FAILED: {anatomy.conservation_violations} "
              "packets' component sums != end-to-end latency")
        return 1
    print(f"\nconservation: ok ({anatomy.delivered} packets, "
          f"drained={result.drained})")
    return 0


def _cmd_serve(args) -> int:
    """Run the fabric daemon, a log replay, or the socket self-test."""
    if args.selftest:
        from repro.service.selftest import run_selftest

        return run_selftest(
            nodes=args.nodes,
            clients=args.clients,
            requests=args.requests,
            window=args.window,
            quantum=args.quantum,
            capture_path=args.capture,
            verify_replay=not args.no_verify_replay,
        )

    if args.replay:
        from repro.service.log import RequestLog, replay

        log = RequestLog.load(args.replay)
        service = replay(log)
        digest = service.digest()
        report = service.snapshot()
        print(f"replayed {digest['requests']} requests from {args.replay}")
        print(f"  completions digest: {digest['completions']}")
        print(f"  sent={digest['sent']} delivered={digest['delivered']} "
              f"dropped={digest['dropped']} shed={digest['shed']}")
        print(f"  pages_lost={report['pages_lost']} "
              f"migrations={report['migrations']} faults={report['faults']}")
        if args.capture:
            from repro.service.log import RequestLog as _Log

            _Log.capture(service).save(args.capture)
            print(f"  re-captured log -> {args.capture}")
        return 0

    import asyncio

    from repro.service.core import FabricService
    from repro.service.daemon import FabricDaemon
    from repro.service.log import RequestLog

    tenant_classes = None
    if args.tenant_class:
        tenant_classes = {}
        for entry in args.tenant_class:
            tenant, _, cls = entry.partition("=")
            if not tenant or not cls.lstrip("-").isdigit():
                raise SystemExit(
                    f"--tenant-class expects TENANT=CLASS, got {entry!r}"
                )
            tenant_classes[tenant] = int(cls)

    service = FabricService(
        nodes=args.nodes,
        design=args.design,
        ports=args.ports,
        topology_seed=args.topology_seed,
        seed=args.seed,
        footprint_pages=args.footprint_pages,
        page_bytes=args.page_bytes,
        max_outstanding=args.max_outstanding,
        queue_depth=args.queue_depth,
        node_watermark=args.node_watermark,
        qos=args.qos,
        tenant_classes=tenant_classes,
        slow_log_threshold=args.slow_log,
        slow_log_size=args.slow_log_size,
    )
    if args.metrics or args.slow_log is not None:
        # --slow-log needs the anatomy installed from the first request
        # so every record carries its network component breakdown.
        service.install_probes()

    async def _serve() -> None:
        import sys

        daemon = FabricDaemon(
            service, host=args.host, port=args.port, quantum=args.quantum,
            slow_log_stream=(
                sys.stderr if args.slow_log is not None else None
            ),
        )
        host, port = await daemon.start()
        print(f"fabric daemon: {args.design} N={args.nodes} resident on "
              f"{host}:{port} ({args.footprint_pages} pages x "
              f"{args.page_bytes} B)")
        print(f'try: printf \'{{"op":"read","page":0,"id":"x"}}\\n\' '
              f"| nc {host} {port}")
        try:
            await daemon.wait_stopped()
        except (KeyboardInterrupt, asyncio.CancelledError):
            await daemon.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\ninterrupted; draining")
        service.drain()
    if args.capture:
        RequestLog.capture(service).save(args.capture)
        print(f"captured request log -> {args.capture}")
    return 0


_COMMANDS = {
    "topology": _cmd_topology,
    "simulate": _cmd_simulate,
    "workload": _cmd_workload,
    "reconfigure": _cmd_reconfigure,
    "trace": _cmd_trace,
    "hotspots": _cmd_hotspots,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    sweep = SWEEPS.get(args.command)
    if sweep is None:
        return _COMMANDS[args.command](args)
    return _run_spec_command(
        args, _sweep_specs(sweep, args), sweep.report, sweep.summary
    )


if __name__ == "__main__":
    sys.exit(main())
