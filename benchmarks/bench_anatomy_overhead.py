"""Anatomy-overhead trajectory: events/sec bare vs probes vs anatomy.

Times the identical synthetic run three ways — no probes at all
(``bare``), `FabricProbes` without the latency anatomy (``probes``),
and probes with the anatomy installed (``anatomy``) — and appends the
three events/sec numbers as one labeled run to
``benchmarks/results/anatomy_overhead.json``, the tracked cost
trajectory of the delay-decomposition layer.  The simulated results
are bit-identical across the three modes (the probes never schedule
events), so every mode processes exactly the same event stream and
the ratio is a pure instrumentation cost.

Usage::

    python benchmarks/bench_anatomy_overhead.py              # measure
    python benchmarks/bench_anatomy_overhead.py --quick      # CI scale
    python benchmarks/bench_anatomy_overhead.py --assert-overhead 39

Methodology: repeats are interleaved round-robin across the modes and
the best repetition per mode wins — on a shared host the noise floor
between back-to-back runs easily exceeds the effect being measured,
and interleaving keeps a slow phase from landing entirely on one mode.
The canary (``repro.obs.canary``) is recorded with every run so the
trajectory comparison can separate code changes from host changes.

Current cost: with the anatomy bound straight into the simulator's
hook slots (one call per hop endpoint) and single-channel waits split
by a bisect over prefix sums, the full per-packet decomposition plus
per-link exact sketches read a median 30% events/sec below the bare
simulator over six ``--quick`` runs on a shared 2-vCPU x86 host
(18–34%), where the previous fan-out design read 41% (37–53%).  The
gate below is a regression ratchet at the measured level plus CI
noise headroom, not an aspiration.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
DEFAULT_OUT = RESULTS_DIR / "anatomy_overhead.json"
QUICK_OUT = RESULTS_DIR / "anatomy_overhead_quick.json"

MODES = ("bare", "probes", "anatomy")

CONFIG = {
    "design": "SF",
    "nodes": 64,
    "pattern": "uniform_random",
    "rate": 0.15,
    "warmup": 100,
    "measure": 2000,
    "drain_limit": 50_000,
    "seed": 7,
}
QUICK_MEASURE = 800


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help=f"short measure window ({QUICK_MEASURE} cycles, CI smoke)",
    )
    parser.add_argument("--repeats", type=int, default=4,
                        help="interleaved timing repetitions (best wins)")
    parser.add_argument(
        "--assert-overhead", type=float, default=None, metavar="PCT",
        help="exit nonzero if anatomy-enabled overhead vs the bare "
             "simulator exceeds PCT percent (events/sec, best-of)",
    )
    parser.add_argument("--label", default=None,
                        help="run label in the trajectory (default: scale)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="trajectory JSON (default: anatomy_overhead"
                             ".json, or the _quick variant with --quick)")
    return parser


def run_once(mode: str, measure: int) -> float:
    """One timed run; returns events/sec (build outside the timed loop
    is pointless here — topology construction is part of no mode's
    marginal cost, but keeping it inside keeps the three modes
    symmetric)."""
    from repro.obs.probes import FabricProbes
    from repro.topologies.registry import make_policy, make_topology
    from repro.traffic.injection import run_synthetic
    from repro.traffic.patterns import make_pattern

    holder = {}

    def instrument(sim):
        holder["sim"] = sim
        if mode != "bare":
            probes = FabricProbes()
            probes.attach_sim(sim)
            if mode == "anatomy":
                probes.install_anatomy()

    topo = make_topology(
        CONFIG["design"], CONFIG["nodes"], seed=CONFIG["seed"],
    )
    policy = make_policy(topo)
    pattern = make_pattern(CONFIG["pattern"], topo.active_nodes)
    start = time.perf_counter()
    run_synthetic(
        topo, policy, pattern, CONFIG["rate"],
        warmup=CONFIG["warmup"], measure=measure,
        drain_limit=CONFIG["drain_limit"], seed=CONFIG["seed"],
        instrument=instrument,
    )
    wall = time.perf_counter() - start
    return holder["sim"]._events_processed / wall


def measure(repeats: int, measure_cycles: int) -> dict[str, float]:
    best = dict.fromkeys(MODES, 0.0)
    for rep in range(repeats):
        for mode in MODES:
            best[mode] = max(best[mode], run_once(mode, measure_cycles))
        print(f"  repeat {rep + 1}/{repeats}: " + "  ".join(
            f"{m} {best[m]:,.0f}" for m in MODES))
    return best


def overhead_pct(slow: float, fast: float) -> float:
    return 100.0 * (1.0 - slow / fast) if fast else 0.0


def load_trajectory(path: Path) -> dict:
    if not path.exists():
        return {"config": CONFIG, "runs": []}
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"{path} exists but is not valid JSON ({exc}); refusing to "
            "overwrite the recorded perf trajectory — fix or delete it first"
        )


def compare(previous: dict, current: dict) -> None:
    """Per-mode events/sec vs the previous recorded run, raw and
    canary-normalized (the raw ratio scaled by old/new canary speed, so
    a slower host does not read as a regression)."""
    old_canary = previous.get("canary_kops")
    new_canary = current.get("canary_kops")
    lines = []
    for mode in MODES:
        old = previous.get("events_per_sec", {}).get(mode)
        new = current["events_per_sec"][mode]
        if not old:
            continue
        ratio = new / old
        if old_canary and new_canary:
            norm = f"{ratio * old_canary / new_canary:.2f}x"
        else:
            norm = "-"
        lines.append(
            f"  {mode:>8s} {old:>12,.0f} -> {new:>12,.0f} ev/s  "
            f"({ratio:.2f}x raw, {norm} canary-normalized)"
        )
    if lines:
        print("\nvs previous recorded run:")
        print("\n".join(lines))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out) if args.out else (QUICK_OUT if args.quick else DEFAULT_OUT)
    measure_cycles = QUICK_MEASURE if args.quick else CONFIG["measure"]

    from repro.obs.canary import run_canary

    trajectory = load_trajectory(out)  # fail on corruption before measuring
    canary = run_canary()
    print(f"canary: {canary['kops']:,.0f} kops/s (machine-speed baseline)")
    print(f"interleaved best-of-{args.repeats}, measure={measure_cycles}:")
    start = time.perf_counter()
    best = measure(args.repeats, measure_cycles)
    elapsed = time.perf_counter() - start

    vs_bare = overhead_pct(best["anatomy"], best["bare"])
    vs_probes = overhead_pct(best["anatomy"], best["probes"])
    probes_vs_bare = overhead_pct(best["probes"], best["bare"])
    print(f"\n  probes  vs bare:   {probes_vs_bare:5.1f}% events/sec")
    print(f"  anatomy vs probes: {vs_probes:5.1f}% events/sec (marginal)")
    print(f"  anatomy vs bare:   {vs_bare:5.1f}% events/sec (full stack)")

    run_entry = {
        "label": args.label or ("quick" if args.quick else "full"),
        "scale": "quick" if args.quick else "full",
        "measure": measure_cycles,
        "repeats": args.repeats,
        "elapsed_s": round(elapsed, 1),
        "canary_kops": round(canary["kops"], 1),
        "events_per_sec": {m: round(v, 1) for m, v in best.items()},
        "overhead_pct": {
            "probes_vs_bare": round(probes_vs_bare, 1),
            "anatomy_vs_probes": round(vs_probes, 1),
            "anatomy_vs_bare": round(vs_bare, 1),
        },
    }
    if trajectory["runs"]:
        compare(trajectory["runs"][-1], run_entry)
    trajectory["runs"].append(run_entry)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    print(f"\ntrajectory: {out} ({len(trajectory['runs'])} recorded runs, "
          f"this one took {elapsed:.1f}s)")

    if args.assert_overhead is not None and vs_bare > args.assert_overhead:
        print(f"FAIL: anatomy overhead {vs_bare:.1f}% vs bare exceeds the "
              f"{args.assert_overhead:.0f}% gate", file=sys.stderr)
        return 1
    if args.assert_overhead is not None:
        print(f"gate: anatomy overhead {vs_bare:.1f}% <= "
              f"{args.assert_overhead:.0f}% vs bare — ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
