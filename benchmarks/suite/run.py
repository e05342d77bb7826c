"""Run the repository benchmark: every workload, one fresh process each.

    python3 benchmarks/suite/run.py                      # all four workloads
    python3 benchmarks/suite/run.py --workloads core_uniform --seed 3
    python3 benchmarks/suite/run.py --trace              # per-layer ledger
    python3 benchmarks/suite/run.py --seed 4 --out a.json   # one run of a set

For each workload the output names every end-to-end metric with its
unit and sample count, the host canary before and after, and the
correctness verdict; ``--trace`` adds the per-layer ledger.  The last
line of standard output is one JSON object, ``{"correct", "attempted",
"failed", "metrics"}``, carrying the metrics ``BENCHMARK.json`` lists
(end-to-end ones untraced, per-layer ones with ``--trace``); with more
than one workload each metric name is prefixed by its workload.  The
exit status is 0 only when every workload passed its correctness gate.

``--out FILE`` appends the run, with the canary, git SHA, Python
version and CPU count, to FILE for ``compare.py``; a run set is one
such call per seed (see README.md).
``--update-expected`` records the digests of the runs into
``expected.json`` (do that only in a change that means to alter
simulated behaviour).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import common
import hostref

#: A workload process that runs longer than this has hung.
CHILD_TIMEOUT_S = 900
#: Canaries further apart than this flag the run as noisy.
NOISE_FRAC = 0.10


def contract() -> dict[str, Any]:
    """The repository's ``BENCHMARK.json``."""
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, args: argparse.Namespace) -> dict[str, Any] | None:
    """One workload in a fresh interpreter; its result, or None if it died."""
    result_path = common.OUT / f"result-{os.getpid()}-{name}.json"
    result_path.unlink(missing_ok=True)
    command = [
        sys.executable, str(common.SUITE / "workloads.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(int(args.trace)),
        "--result", str(result_path),
    ]
    if args.smoke:
        command.append("--smoke")
    # The child's own output goes to stderr: stdout ends with our JSON.
    proc = subprocess.run(command, cwd=common.ROOT, stdout=sys.stderr,
                          timeout=CHILD_TIMEOUT_S, check=False,
                          preexec_fn=common.child_setup())
    if not result_path.is_file():
        print(f"{name}: workload process exited with {proc.returncode} "
              "and no result", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    result_path.unlink()
    before, after = result["canary_before_kops"], result["canary_after_kops"]
    result["host_noisy"] = abs(after / before - 1.0) > NOISE_FRAC
    return result


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(result: dict[str, Any]) -> None:
    """Human-readable block for one workload's result."""
    name = result["workload"]
    noisy = "NOISY" if result["host_noisy"] else "quiet"
    print(f"== {name} seed={result['seed']} "
          f"{'traced' if result['trace'] else 'untraced'}"
          f"{' (smoke: not claimable)' if result['smoke'] else ''}: "
          f"canary {result['canary_before_kops']:.0f} -> "
          f"{result['canary_after_kops']:.0f} kops (host {noisy})")
    if result["trace"]:
        report_ledger(result)
    else:
        units = {m.name: m.unit for m in common.END_TO_END}
        samples = result["samples"]
        host = result["host"]
        print(f"  host reference on core {host['core']}: {host['samples']} samples, "
              f"median {host['median_ops_per_us']:.3f} ops/us (nominal "
              f"{hostref.NOMINAL_OPS_PER_US:g}); wall_* are raw wall-clock")
        for metric, value in result["metrics"].items():
            # wall_X is X before the host-speed adjustment.
            base = metric.removeprefix("wall_")
            count = samples.get(base)
            if base == "us_per_pkt" and name != "daemon":
                count = f"{samples['us_per_pkt']} episode(s), {samples['packets']} packets"
            elif base == "us_per_pkt":
                count = f"{count} packets"
            elif metric in ("req_per_s", "p50_ms", "p99_ms"):
                count = f"{samples['closed']} closed-loop requests"
            elif metric.startswith("open_"):
                count = f"{samples['open']} open-loop requests"
            elif metric == "failed_frac":
                count = f"{result['failed']}/{result['attempted']}"
            extra = "" if metric in units else "  (not gated)"
            print(f"  {metric:15s} {_fmt(value):>12s} {units.get(base, 'ms'):5s}"
                  f"  n={count}{extra}")
        if name == "daemon":
            met = "met" if result["p99_limit_met"] else "NOT met"
            print(f"  latency limit: closed-loop p99 <= {result['p99_limit_ms']:g} ms "
                  f"{met}; client cpu busy {result['client']['cpu_busy_frac']:.2f}, "
                  f"open-loop late p99 {result['client']['open_late_p99_ms']:.2f} ms")
    verdict = "ok" if result["correct"] else "FAILED"
    failed = [k for k, v in result["checks"].items() if not v]
    digest = result.get("digest")
    if digest:
        want = result.get("expected_digest")
        recorded = ("matches expected" if want == digest else
                    "no recorded digest for this seed" if want is None else
                    "DIFFERS from expected")
        print(f"  digest {digest[:16]} ({recorded})")
    print(f"  correctness: {verdict} ({len(result['checks'])} checks"
          f"{'; failed: ' + ', '.join(failed) if failed else ''})")


def report_ledger(result: dict[str, Any]) -> None:
    """Per-layer block of a traced result."""
    ledger = result["ledger"]
    per_layer = result["per_layer"]
    print(f"  {'layer':28s} {'share':>8s} {'self ms':>10s} {'calls':>10s}")
    for layer, row in sorted(ledger["layers"].items(), key=lambda kv: -kv[1]["self_ns"]):
        share = f"{row['self_ns'] / result['work_ns']:8.2%}" if layer != "idle" else f"{'-':>8s}"
        print(f"  {layer:28s} {share} {row['self_ns'] / 1e6:10.1f} {row['calls']:10d}")
    for metric, value in sorted(per_layer.items()):
        if not metric.endswith(".share"):
            print(f"  {metric:50s} {_fmt(value)}")
    reasons = result["not_claimable"]
    print(f"  layer shares: {'NOT claimable: ' + '; '.join(reasons) if reasons else 'claimable'}")
    print(f"  chrome trace: {result['chrome_trace']}")


def contract_line(results: list[dict[str, Any]], trace: bool) -> dict[str, Any]:
    """The final JSON line: the metrics BENCHMARK.json lists.

    Every listed metric must have been computed by every workload; a
    missing one is an error, never a stand-in value.
    """
    spec = contract()["per_layer" if trace else "end_to_end"]
    metrics: dict[str, dict[str, Any]] = {}
    for result in results:
        values = result["per_layer"] if trace else result["metrics"]
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        missing = [e["name"] for e in spec if e["name"] not in values]
        if missing:
            raise RuntimeError(f"{result['workload']} did not compute "
                               f"{', '.join(missing)}")
        for entry in spec:
            metrics[prefix + entry["name"]] = {
                "value": values[entry["name"]], "unit": entry["unit"],
            }
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(int(r["attempted"]) for r in results),
        "failed": sum(int(r["failed"]) for r in results),
        "metrics": metrics,
    }


def append_out(path: Path, results: list[dict[str, Any]], args: argparse.Namespace) -> None:
    """Append one run (all its workloads) to a compare.py input file."""
    data = json.loads(path.read_text()) if path.is_file() else {"runs": []}
    data["runs"].append({
        "time": time.time(),
        "seed": args.seed,
        "seconds": args.seconds,
        **common.host_facts(),
        "workloads": {r["workload"]: r for r in results},
    })
    path.write_text(json.dumps(data, default=float))


def update_expected(results: list[dict[str, Any]]) -> None:
    """Record each untraced, full-size result's digest in expected.json."""
    path = common.SUITE / "expected.json"
    expected = json.loads(path.read_text()) if path.is_file() else {}
    for r in results:
        if r.get("digest") and not r["smoke"]:
            expected.setdefault(r["workload"], {})[str(r["seed"])] = r["digest"]
    path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workloads", "--workload", default=",".join(common.WORKLOADS),
        help="comma-separated workloads (default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed: injectors and client RNG")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="per-layer ledger instead of "
                        "end-to-end metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="append this run to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: exercises everything, claims nothing")
    parser.add_argument("--update-expected", action="store_true",
                        help="record the digests of these runs")
    args = parser.parse_args(argv)
    args.workloads = [w for w in args.workloads.split(",") if w]
    unknown = set(args.workloads) - set(common.WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    common.use_source()
    if args.seconds is None:
        args.seconds = float(contract()["run_seconds"])
    facts = common.host_facts()
    print(f"benchmark @ {facts['git_sha'][:12]} python {facts['python']} "
          f"nproc {facts['nproc']}: {', '.join(args.workloads)} "
          f"seed={args.seed} seconds={args.seconds:g}")
    results: list[dict[str, Any]] = []
    for name in args.workloads:
        result = run_workload(name, args)
        if result is None:
            return 1
        report(result)
        results.append(result)
    if args.out is not None:
        append_out(args.out, results, args)
    if args.update_expected:
        update_expected(results)
    print(json.dumps(contract_line(results, bool(args.trace))))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
