"""One benchmark workload in this process; ``run.py`` starts one per run.

    python3 benchmarks/suite/workloads.py --workload core_uniform \\
        --seed 0 --seconds 10 --trace 0 --result out/result.json

The three simulator workloads copy the traffic of existing CLIs:

* ``core_uniform`` — ``repro perf`` at paper scale (SF N=1296,
  uniform random at 0.05, classless, sketch stats).  The event core and
  greedy routing do nearly all the work.
* ``core_incast_qos`` — ``repro hotspots`` at N=648: incast at 0.5
  against a 0.05 foreground under the default QoS table with the
  latency anatomy.  The same core, congested: QoS send path, credit
  stalls, blocked-send events and the ``obs`` hooks all run.
* ``elastic_migrate`` — ``repro migrate`` at N=144: gate off a quarter
  of the nodes with real page migration, then wake them, under
  read-only foreground memory traffic (page directory + DRAM model).

Set-up (topology, routing tables, simulator) is timed from the start of
the workload to the moment the runner hands over the built simulator,
several times per run, and reported as its median.  A run then measures
as many whole episodes as fit in ``--seconds`` of run phase, at least
one, and reports the median episode.  Both are CPU times expressed at
the nominal host speed that :mod:`hostref` samples on this core.
Every episode's simulated results must satisfy the conservation laws
and, for the seeds recorded in ``expected.json``, match its digest.
The daemon workload lives in ``loadgen.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any

import common
import hostref

#: Each episode's run phase takes 4-7 s on a quiet 2.0 GHz Xeon vCPU and
#: up to twice that when a neighbour loads the core, so a 20 s run holds
#: two to four of them.
SIZES: dict[str, dict[str, Any]] = {
    "core_uniform": {
        "nodes": 1296, "rate": 0.05,
        "warmup": 100, "measure": 1000, "drain_limit": 20_000,
    },
    "core_incast_qos": {
        "nodes": 648, "rate": 0.5, "fg_rate": 0.05,
        "warmup": 300, "measure": 1000, "drain_limit": 60_000,
    },
    "elastic_migrate": {
        "nodes": 144, "rate": 0.1, "footprint_pages": 256,
        "rate_limit": 128.0, "gate_fraction": 0.25,
        "warmup": 300, "measure": 2000, "drain_limit": 80_000,
    },
}

#: Tiny sizes for the smoke test.  They never yield claimable numbers.
SMOKE_SIZES: dict[str, dict[str, Any]] = {
    "core_uniform": {**SIZES["core_uniform"], "nodes": 64, "measure": 200},
    "core_incast_qos": {**SIZES["core_incast_qos"], "nodes": 64, "measure": 300},
    "elastic_migrate": {**SIZES["elastic_migrate"], "nodes": 64,
                        "footprint_pages": 64, "measure": 600},
}

EXPECTED = common.SUITE / "expected.json"


class SetupDone(Exception):
    """Raised from the instrument callback to stop after set-up."""


def _launch(name: str, size: dict[str, Any], seed: int, instrument) -> dict[str, Any]:
    """Build and run one episode through the public ``repro`` runners.

    ``instrument(sim)`` fires once the simulator is built, before any
    traffic: that instant ends set-up.  Returns the runner's results.
    """
    from repro.topologies.registry import make_policy, make_topology
    from repro.traffic.injection import run_synthetic
    from repro.traffic.patterns import make_pattern
    from repro.workloads.interference import run_interference
    from repro.workloads.migration import run_migration

    topology = make_topology("SF", size["nodes"], seed=0)
    if name == "core_uniform":
        policy = make_policy(topology)
        pattern = make_pattern("uniform_random", topology.active_nodes)
        stats = run_synthetic(
            topology, policy, pattern, size["rate"],
            warmup=size["warmup"], measure=size["measure"],
            drain_limit=size["drain_limit"], seed=seed,
            sample_free=True, instrument=instrument,
        )
        return {"stats": stats}
    if name == "core_incast_qos":
        result = run_interference(
            topology, mode="incast", rate=size["rate"],
            fg_rate=size["fg_rate"], qos=True, anatomy=True,
            warmup=size["warmup"], measure=size["measure"],
            drain_limit=size["drain_limit"], seed=seed,
            instrument=instrument,
        )
        return {"stats": result.stats, "result": result}
    if name == "elastic_migrate":
        result = run_migration(
            topology, mode="migrate", rate=size["rate"],
            footprint_pages=size["footprint_pages"],
            rate_limit=size["rate_limit"],
            gate_fraction=size["gate_fraction"],
            warmup=size["warmup"], measure=size["measure"],
            drain_limit=size["drain_limit"], seed=seed,
            instrument=instrument,
        )
        return {"stats": result.stats, "result": result}
    raise ValueError(f"unknown simulator workload {name!r}")


def digest_payload(name: str, out: dict[str, Any]) -> dict[str, Any]:
    """The simulated results an episode's digest covers."""
    stats = out["stats"]
    payload: dict[str, Any] = {
        "sent": stats.sent,
        "delivered": stats.delivered,
        "dropped": stats.dropped,
        "latency": [stats.latency.percentile(q) for q in (50, 90, 99, 100)],
        "hops": [stats.hops.percentile(q) for q in (50, 99, 100)],
        "deadlock_recoveries": stats.deadlock_recoveries,
    }
    result = out.get("result")
    if name == "core_incast_qos":
        payload["class_p99"] = {
            str(cls): row["p99"] for cls, row in result.class_latency().items()
        }
        payload["anatomy"] = {
            "delivered": result.anatomy.delivered,
            "components": result.anatomy.component_totals(),
        }
    elif name == "elastic_migrate":
        phase = result.phase
        payload["pages_moved"] = sum(r.pages_moved for r in result.records)
        payload["foreground"] = {
            key: phase[key]
            for key in ("fg_requests", "fg_p99_overall", "fg_p99_baseline",
                        "fg_p99_during", "fg_p99_after")
        }
    return payload


def digest(payload: dict[str, Any]) -> str:
    """sha256 of the canonical JSON form of *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def conservation(name: str, out: dict[str, Any]) -> dict[str, bool]:
    """Every law the episode must satisfy, by name."""
    stats = out["stats"]
    checks = {
        "packets_conserved": stats.sent == stats.delivered + stats.dropped,
        "nothing_dropped": stats.dropped == 0,
    }
    result = out.get("result")
    if name == "core_incast_qos":
        checks["drained"] = bool(result.drained)
        checks["anatomy_conserved"] = result.anatomy.conserved()
    elif name == "elastic_migrate":
        fg = result.foreground
        checks["pages_conserved"] = bool(result.directory.check_conservation())
        checks["requests_conserved"] = fg.issued == fg.completed
        checks["migrations_done"] = all(r.done for r in result.records)
    return checks


def expected_digest(name: str, seed: int, smoke: bool) -> str | None:
    """The recorded digest for (*name*, *seed*), if one is recorded.

    Only full-size episodes have recorded digests.
    """
    if smoke or not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text()).get(name, {}).get(str(seed))


def setup_only(name: str, size: dict[str, Any], seed: int) -> dict[str, float]:
    """Time one set-up and stop before any traffic: its wall-clock
    interval ``[t0, t1]`` and the CPU seconds spent in it."""

    def stop(sim) -> None:
        raise SetupDone

    start, cpu = time.perf_counter(), time.process_time()
    try:
        _launch(name, size, seed, stop)
    except SetupDone:
        return {"t0": start, "t1": time.perf_counter(),
                "cpu_s": time.process_time() - cpu}
    raise RuntimeError(f"{name}: the runner never built a simulator")


def episode(name: str, size: dict[str, Any], seed: int, on_built=None) -> dict[str, Any]:
    """Set up and run one episode; time both phases.

    ``on_built(sim)`` (optional) runs at the end of set-up, as the run
    phase's clock starts; the tracer cuts its ledger there.
    """
    marks: dict[str, Any] = {}

    def instrument(sim) -> None:
        marks["sim"] = sim
        marks["built"] = time.perf_counter()
        marks["cpu"] = time.process_time()
        if on_built is not None:
            on_built(sim)

    start, start_cpu = time.perf_counter(), time.process_time()
    out = _launch(name, size, seed, instrument)
    end = time.perf_counter()
    cpu = time.process_time() - marks["cpu"]
    sim = marks["sim"]
    stats = out["stats"]
    payload = digest_payload(name, out)
    record = {
        "start": start,
        "built": marks["built"],
        "end": end,
        "setup_s": marks["built"] - start,
        "setup_cpu_s": marks["cpu"] - start_cpu,
        "run_s": end - marks["built"],
        "cpu_s": cpu,
        "sent": stats.sent,
        "delivered": stats.delivered,
        "dropped": stats.dropped,
        "events": sim.logical_events,
        "elided": sim.link_events_elided,
        "deadlock_recoveries": stats.deadlock_recoveries,
        "measured": stats.measured_delivered,
        "total_hops": stats.total_hops,
        "checks": conservation(name, out),
        "digest": digest(payload),
        "simulated": payload,
    }
    if name == "elastic_migrate":
        record["requests"] = out["result"].foreground.issued
        record["pages_moved"] = payload["pages_moved"]
    return record


def run_untraced(name: str, seed: int, seconds: float, smoke: bool,
                 core: int) -> dict[str, Any]:
    """Timed set-ups, then as many whole episodes as fit in *seconds*
    of run phase (at least one); metrics are medians over both.

    The gated timings are CPU seconds at the nominal host speed of
    *core*, this process's (:mod:`hostref`); the raw wall-clock ones
    are printed beside them.
    """
    size = (SMOKE_SIZES if smoke else SIZES)[name]
    episodes: list[dict[str, Any]] = []
    with hostref.Reference(core, name) as ref:
        setups: list[dict[str, float]] = []
        while not smoke and common.more_setups([s["t1"] - s["t0"] for s in setups]):
            # A collection of the last set-up's garbage would otherwise
            # land inside some of the timed set-ups and not others.
            gc.collect()
            setups.append(setup_only(name, size, seed))
        measured = 0.0
        while True:
            gc.collect()
            ep = episode(name, size, seed)
            if not episodes:
                # Later episodes raise the peak a little (a fragmented
                # heap), and how many fit depends on the host's speed.
                peak_rss_mb = common.peak_rss_mb()
            episodes.append(ep)
            setups.append({"t0": ep["start"], "t1": ep["built"], "cpu_s": ep["setup_cpu_s"]})
            measured += ep["run_s"]
            # Stop before an episode that would overrun the budget.
            if smoke or measured + ep["run_s"] > seconds:
                break
    setup_s = [s["cpu_s"] * ref.factor(s["t0"], s["t1"]) for s in setups]
    per_pkt = [ep["cpu_s"] * ref.factor(ep["built"], ep["end"]) / ep["delivered"] * 1e6
               for ep in episodes]
    sent = sum(ep["sent"] for ep in episodes)
    lost = sum(ep["sent"] - ep["delivered"] for ep in episodes)
    checks = {f"episode{i}.{k}": v
              for i, ep in enumerate(episodes) for k, v in ep["checks"].items()}
    checks["episodes_identical"] = len({ep["digest"] for ep in episodes}) == 1
    return {
        "episodes": episodes,
        "checks": checks,
        "digest": episodes[0]["digest"],
        "setup_samples": setup_s,
        "host": ref.summary(),
        "metrics": {
            "setup_s": statistics.median(setup_s),
            "us_per_pkt": statistics.median(per_pkt),
            "peak_rss_mb": peak_rss_mb,
            "failed_frac": lost / sent if sent else 0.0,
            "wall_setup_s": statistics.median(s["t1"] - s["t0"] for s in setups),
            "wall_us_per_pkt": statistics.median(
                ep["run_s"] / ep["delivered"] * 1e6 for ep in episodes),
        },
        "samples": {
            "setup_s": len(setups),
            "us_per_pkt": len(per_pkt),
            "packets": sum(ep["delivered"] for ep in episodes),
            "peak_rss_mb": 1,
        },
        "attempted": sent,
        "failed": lost,
    }


def run_traced(name: str, seed: int, smoke: bool) -> dict[str, Any]:
    """The same episode untraced, traced, then untraced again.

    The two untraced references bracket the traced episode: their mean
    sizes what tracing added to the run phase, which the ledger spreads
    over the keys (:func:`ledger.in_situ_scale`), and their difference
    says how far that can be trusted.
    """
    from ledger import (
        Ledger,
        Tracing,
        attribute,
        calibrate,
        common_layers,
        delta,
        in_situ_scale,
        trace_metrics,
    )

    size = (SMOKE_SIZES if smoke else SIZES)[name]
    gc.collect()
    before = episode(name, size, seed)
    calib = calibrate()
    ledger = Ledger()
    marks: dict[str, Any] = {}

    def on_built(sim) -> None:
        marks["setup"] = ledger.snapshot()

    gc.collect()
    with Tracing(ledger):
        traced = episode(name, size, seed, on_built=on_built)
    gc.collect()
    after = episode(name, size, seed)
    root_ns = traced["run_s"] * 1e9
    references_ns = (before["run_s"] * 1e9, after["run_s"] * 1e9)
    overhead_ns = root_ns - statistics.fmean(references_ns)
    raw = delta(ledger.snapshot(), marks["setup"])
    calibrated = attribute(raw, calib, root_ns)
    region = attribute(raw, calib, root_ns, in_situ_scale(raw, calib, overhead_ns))
    setup = attribute(marks["setup"], calib)
    trace_path = ledger.write_chrome_trace(
        common.OUT / f"{name}-seed{seed}.trace.json"
    )
    work_ns = root_ns - region["wrapper_ns"]
    per_layer = common_layers(region, setup, {
        "delivered": traced["delivered"], "events": traced["events"],
        "elided": traced["elided"], "recoveries": traced["deadlock_recoveries"],
        "measured": traced["measured"], "total_hops": traced["total_hops"],
    }, work_ns)
    per_layer.update(sim_layers(region, traced, before))
    trace, not_claimable = trace_metrics(
        region, calibrated["wrapper_ns"], overhead_ns, references_ns, work_ns,
    )
    per_layer.update(trace)
    # The runner's own code outside every span.
    per_layer["bench.trace.residual_frac"] = region["unattributed_ns"] / root_ns
    references = (before, after)
    return {
        "references": references,
        "traced": traced,
        "calibration": calib,
        "ledger": region,
        "per_layer": per_layer,
        "not_claimable": not_claimable,
        "work_ns": work_ns,
        "chrome_trace": str(trace_path),
        "checks": {
            **{f"reference{i}.{k}": v
               for i, ref in enumerate(references) for k, v in ref["checks"].items()},
            **{f"traced.{k}": v for k, v in traced["checks"].items()},
            "traced_digest_equal": all(
                traced["digest"] == ref["digest"] for ref in references
            ),
        },
        "digest": traced["digest"],
        "attempted": traced["sent"],
        "failed": traced["sent"] - traced["delivered"],
    }


def sim_layers(
    region: dict[str, Any],
    traced: dict[str, Any],
    reference: dict[str, Any],
) -> dict[str, float]:
    """The per-layer metrics only simulator workloads compute, beyond
    :func:`ledger.common_layers`: foreground memory requests, pages
    migrated, reconfiguration time, and how busy the process kept its
    core in the untraced *reference*."""
    keys = region["keys"]
    reconfig_ns = sum(
        region["layers"].get(layer, {}).get("self_ns", 0.0)
        # Run-phase routing work is table rebuilds under reconfiguration.
        for layer in ("network.elastic", "core.reconfig", "core.routing")
    )
    out = {"bench.client.cpu_busy_frac": reference["cpu_s"] / reference["run_s"]}
    if reconfig_ns:
        out["network.elastic.reconfig_ms"] = reconfig_ns / 1e6
    requests = traced.get("requests", 0)
    if requests:
        out["memory.service_calls_per_req"] = sum(
            keys.get(k, {}).get("calls", 0)
            for k in ("memory/service", "memory/service_bulk")
        ) / requests
        out["workloads.migration.self_us_per_req"] = (
            region["layers"].get("workloads.migration", {}).get("self_ns", 0.0)
            / requests / 1e3
        )
        out["memory.migration.pages_moved"] = float(traced["pages_moved"])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)
    common.use_source()
    # Untraced, the measured code runs on one core next to the host
    # reference; a daemon's server takes that core and this load
    # generator the other.
    measured_core, other_core = hostref.cores()
    if not args.trace:
        os.sched_setaffinity(0, {other_core if args.workload == "daemon" else measured_core})

    canary_s = 0.1 if args.smoke else 1.0
    before = common.canary(canary_s)
    if args.workload == "daemon":
        import loadgen

        body = loadgen.run(args.seed, args.seconds, bool(args.trace), args.smoke,
                           measured_core)
    elif args.trace:
        body = run_traced(args.workload, args.seed, args.smoke)
    else:
        body = run_untraced(args.workload, args.seed, args.seconds, args.smoke,
                            measured_core)
    after = common.canary(canary_s)

    checks = body.pop("checks")
    if "digest" in body:
        want = expected_digest(args.workload, args.seed, args.smoke)
        body["expected_digest"] = want
        if want is not None:
            checks["digest_matches_expected"] = body["digest"] == want
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "canary_before_kops": before["kops"],
        "canary_after_kops": after["kops"],
        "checks": checks,
        "correct": all(checks.values()),
        **body,
    }
    args.result.parent.mkdir(parents=True, exist_ok=True)
    args.result.write_text(json.dumps(result, default=float))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
